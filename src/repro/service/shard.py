"""One worker process of the sharded service.

A shard is a :class:`repro.service.server.RiotService` — the same
session workers, queues, deadlines and per-session WALs as the
single-process server, started by the same command-line path
(:func:`repro.service.frontend.run_cli`) — in its own interpreter with
its own WAL directory.  Its socket is the **data plane** (see
:mod:`repro.service.supervisor`): clients holding a ``service.route``
lease send session commands there, stamped with the lease's
generation, and the shard refuses stale generations and wrong-shard
sessions with ``service.moved``.  It enforces ``--shed-at`` itself and
records every request it executes in its own telemetry.  A shard that
segfaults, OOMs or is SIGKILLed takes only its own sessions down; they
resume by WAL salvage + replay when the supervisor restarts it.

The supervisor holds one ordinary protocol-v1 connection to the same
socket: ``service.ping`` is the heartbeat and carries the shard's
metrics snapshot back, and a post-restart warm-up is a plain
``cells``.  The shard also drains when its stdin (the supervisor's
pipe) closes, so an orphaned shard never outlives its supervisor.

Runnable directly for debugging::

    python -m repro.service.shard --index 0 --journal-dir wals/shard-0
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading

from repro.obs import trace
from repro.service.chaos import ChaosPolicy
from repro.service.frontend import run_cli, server_kwargs, server_parser
from repro.service.server import RiotService


def _watch_stdin(service: RiotService) -> None:
    """Drain once the supervisor's pipe closes (a daemon thread blocks
    on it).

    Reads the raw fd, not ``sys.stdin.buffer``: the thread may still
    be blocked here when a graceful shutdown finalizes the interpreter,
    and holding the buffered reader's lock at that point aborts the
    process (``_enter_buffered_busy``)."""
    loop = asyncio.get_running_loop()

    def watch() -> None:
        try:
            fd = sys.stdin.fileno()
            while os.read(fd, 4096):
                pass
        except (OSError, ValueError):  # pragma: no cover - closed abruptly
            pass
        loop.call_soon_threadsafe(service.request_shutdown)

    if not sys.stdin.isatty():
        threading.Thread(
            target=watch, name=f"{service.process_label}-stdin", daemon=True
        ).start()


def main(argv: list[str] | None = None) -> int:
    parser = server_parser(
        "python -m repro.service.shard",
        "One worker process of the sharded Riot service.",
        max_sessions=1024,
        shed_at=None,
    )
    parser.add_argument(
        "--index", type=int, default=0,
        help="this shard's index (labels, and ring-ownership checks "
             "for direct requests when --shards > 1)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="total shard count; > 1 enables the consistent-hash "
             "ownership check on direct-to-shard requests",
    )
    parser.add_argument(
        "--generation", type=int, default=0,
        help="restart generation the supervisor spawned this shard "
             "with; direct requests carrying a different generation "
             "are refused with service.moved",
    )
    args = parser.parse_args(argv)
    trace.set_process_label(f"shard{args.index}")
    return run_cli(
        args,
        lambda: RiotService(
            chaos=ChaosPolicy.from_env(),
            process_label=f"shard{args.index}",
            shard_count=args.shards,
            shard_index=args.index,
            generation=args.generation,
            shed_at=args.shed_at,
            **server_kwargs(args),
        ),
        on_listening=_watch_stdin,
    )


if __name__ == "__main__":
    sys.exit(main())
