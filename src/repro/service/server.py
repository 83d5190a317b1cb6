"""The server hosting many editor sessions: ``python -m repro serve``,
and the body of every shard.  On the shared socket front end
(:mod:`repro.service.frontend`) it answers a session command by
running it.

Concurrency model, in one paragraph: each session is a
:class:`SessionWorker` — an editor + :class:`repro.api.session.Session`
behind a bounded queue drained by one dedicated thread (a
single-worker executor), so commands *within* a session execute
strictly one at a time, in arrival order, while commands in
*different* sessions run on different threads and overlap freely (one
session's slow ROUTE, or its WAL fsync, never stalls another's).  A
full queue answers immediately with
``service.backpressure`` instead of buffering unboundedly; a command
that outlives the per-request deadline answers ``service.timeout`` but
still runs to completion before its session takes the next command, so
the editor is never mutated concurrently.

Crash isolation: a failing command is rolled back by the editor's
transactional wrapper (memory and WAL tail both) and reported as an
error response; nothing a session does — including dying mid-command
with its client — can disturb another session's state.  With
``--journal-dir`` every session writes its own fsync-per-command WAL,
checkpointed on graceful shutdown; an existing WAL for a session name
is salvaged and replayed when the session opens, which is the paper's
REPLAY recovery story, per seat.
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path

from repro.api import wire
from repro.api.session import Session
from repro.api.store import MemoryStore
from repro.api.types import PROTOCOL_VERSION
from repro.errors import error_code as wire_error_code
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.service import control, telemetry
from repro.service.errors import (
    BackpressureError,
    OverloadedError,
    ServiceError,
    ServiceTimeout,
    SessionMovedError,
)
from repro.service.frontend import (
    LineServer,
    ServerThread,
    check_session_name,
    run_cli,
    server_kwargs,
    server_parser,
)


def _stage_span(name, seconds, trace_id, request_span, **attrs) -> None:
    """Record a finished stage as a child of ``request_span``."""
    rec = trace.record(name, seconds, 0.0, **attrs)
    if rec is not None:
        rec.trace_id = trace_id
        rec.remote_parent = request_span.ref


class SessionWorker:
    """One session: an editor behind a single-thread executor.

    The executor's one thread *is* the serialization guarantee —
    commands run in submission order, one at a time — and its queue,
    bounded by the ``depth`` count kept on the event loop, is the
    session's command queue.  Session init (library build, WAL
    salvage) is simply the first job submitted, so it is ordered
    before every command without any handshake.
    """

    def __init__(self, service: "RiotService", name: str) -> None:
        import concurrent.futures

        self.service = service
        self.name = name
        self.depth = 0  # commands submitted and not yet finished
        self.executed = 0
        self.failed = 0
        self.session: Session | None = None
        self.journal_path: Path | None = None
        if service.journal_dir is not None:
            self.journal_path = service.journal_dir / f"{name}.wal"
        self._init_error: Exception | None = None
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"session-{name}"
        )
        self.executor.submit(self._init)

    # -- blocking parts, always run on the session's one thread -------------

    def _init(self) -> None:
        """Build the editor (stock library, own store, scoped obs) and
        wire up — salvaging first, when a previous life left a WAL."""
        try:
            from repro.core.editor import RiotEditor
            from repro.library.stock import filter_library

            editor = RiotEditor()
            editor.library = filter_library(editor.technology)
            self.session = Session(
                editor=editor,
                store=MemoryStore(),
                cellstore=self.service.cellstore,
                scoped_obs=True,
            )
            if self.journal_path is None:
                return
            from repro.core import wal

            if self.journal_path.exists():
                wal.recover(editor, wal.load_path(self.journal_path), mode="skip")
            editor.journal.attach(wal.JournalWriter(self.journal_path))
        except Exception as exc:
            self._init_error = exc

    def _journal_writer(self):
        session = self.session
        if session is None:
            return None
        journal = getattr(session.editor, "journal", None)
        return getattr(journal, "writer", None) if journal is not None else None

    def _dispatch(
        self,
        envelope: wire.RequestEnvelope,
        t_enqueue: float | None = None,
        request_span=trace.NULL_SPAN,
    ) -> str:
        import time

        t_start = time.perf_counter()
        trace_id = (envelope.trace or {}).get("id")
        try:
            if self._init_error is not None:
                return wire.encode_error(envelope.id, self._init_error)
            chaos = self.service.chaos
            if chaos is not None and chaos.slow_worker_ms:
                time.sleep(chaos.command_delay())
            writer = self._journal_writer()
            fsync_before = writer.fsync_seconds if writer is not None else 0.0
            t_handler = time.perf_counter()
            error_code = None
            try:
                _, result = self.session.dispatch_named(
                    envelope.method, dict(envelope.params)
                )
            except Exception as exc:
                # The transactional editor already rolled the command
                # back; this session (and every other) continues
                # untouched.
                self.failed += 1
                self.service.count("errors")
                error_code = wire_error_code(exc)
                result = None
                response_exc = exc
            t_done = time.perf_counter()
            writer = self._journal_writer()
            fsync_s = (
                writer.fsync_seconds - fsync_before
                if writer is not None
                else 0.0
            )
            queue_s = (
                max(0.0, t_start - t_enqueue) if t_enqueue is not None else 0.0
            )
            handler_s = t_done - t_handler
            stages = {
                "shard_queue": telemetry.us(queue_s),
                "handler": telemetry.us(handler_s),
                "fsync": telemetry.us(max(0.0, fsync_s)),
            }
            total_us = telemetry.us(
                t_done - (t_enqueue if t_enqueue is not None else t_start)
            )
            if envelope.generation is not None:
                # The shard's own turnaround (queue + handler) for a
                # request that arrived on its data socket.
                stages["direct"] = total_us
            self.service.telemetry.record_request(
                envelope.method,
                total_us=total_us,
                stages=stages,
                session=self.name,
                shard=self.service.shard_index,
                trace_id=trace_id,
                error=error_code,
            )
            if queue_s > 0:
                _stage_span("shard.queue", queue_s, trace_id, request_span)
            _stage_span(
                "handler.execute",
                handler_s,
                trace_id,
                request_span,
                method=envelope.method,
            )
            if fsync_s > 0:
                _stage_span(
                    "wal.fsync.request", fsync_s, trace_id, request_span
                )
            if error_code is not None:
                request_span.set("error", error_code)
                return wire.encode_error(
                    envelope.id, response_exc, stages=stages
                )
            self.executed += 1
            return wire.encode_result(
                envelope.id, envelope.method, result, stages=stages
            )
        finally:
            request_span.close()

    def _checkpoint(self) -> None:
        journal = self.session.editor.journal if self.session else None
        if journal is not None and journal.writer is not None:
            journal.writer.checkpoint(journal.entries)
            journal.writer.close()

    # -- event-loop side -----------------------------------------------------

    async def execute(self, envelope: wire.RequestEnvelope) -> str:
        """Queue one command and await its response line.

        Raises :class:`BackpressureError` instead of queueing past the
        bound.  On deadline, answers ``service.timeout`` immediately —
        but the command still finishes on the session thread before the
        next one starts, so the editor is never mutated concurrently.
        """
        if self.depth >= self.service.queue_limit:
            raise BackpressureError(
                f"session {self.name!r} already has "
                f"{self.service.queue_limit} command(s) queued; retry later"
            )
        import time

        self.depth += 1
        self.service.inflight += 1
        context = envelope.trace or {}
        request_span = trace.begin(
            "shard.request",
            trace_id=context.get("id"),
            remote_parent=context.get("parent"),
            method=envelope.method,
            session=self.name,
        )
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self.executor,
            self._dispatch,
            envelope,
            time.perf_counter(),
            request_span,
        )
        future.add_done_callback(self._finished)  # runs on the loop
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.service.timeout
            )
        except asyncio.TimeoutError:
            self.service.count("timeouts")
            return wire.encode_error(
                envelope.id,
                ServiceTimeout(
                    f"{envelope.method} exceeded the "
                    f"{self.service.timeout:g}s deadline"
                ),
            )

    def _finished(self, future: asyncio.Future) -> None:
        self.depth -= 1
        self.service.inflight -= 1
        if not future.cancelled():
            future.exception()  # consume, so abandoned errors don't warn

    async def stop(self) -> None:
        """Drain the queue, then checkpoint and close the WAL."""

        def drain() -> None:
            self.executor.shutdown(wait=True)
            self._checkpoint()

        await asyncio.to_thread(drain)


class RiotService(LineServer):
    """The server: session registry, control plane, graceful drain."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 32,
        queue_limit: int = 16,
        timeout: float = 30.0,
        journal_dir: str | Path | None = None,
        library_dir: str | Path | None = None,
        chaos=None,
        process_label: str = "server",
        shard_count: int = 0,
        shard_index: int | None = None,
        generation: int = 0,
        shed_at: int | None = None,
    ) -> None:
        super().__init__(host, port)
        self.max_sessions = max_sessions
        self.queue_limit = queue_limit
        self.timeout = timeout
        #: Sharded-deployment coordinates (supervisor-hosted shards
        #: only): which shard this process is, out of how many, and
        #: the restart generation the supervisor spawned it with.
        #: Direct-to-shard requests stamp the generation from their
        #: route lease; a mismatch — or a session that hashes to a
        #: different shard — answers ``service.moved``.
        self.shard_count = shard_count
        self.shard_index = shard_index
        self.generation = generation
        self._ring = None
        if shard_index is not None and shard_count > 1:
            from repro.service.supervisor import HashRing

            self._ring = HashRing(shard_count)
        #: Shard-level admission control: refuse session commands with
        #: ``service.overloaded`` once this many are in flight process-
        #: wide.  ``None`` (single-process default) disables shedding.
        self.shed_at = shed_at
        #: Commands submitted to any session and not yet finished —
        #: the O(1) process-wide depth the shed check reads.
        self.inflight = 0
        #: This process's name in telemetry ("server", or "shard<i>"
        #: when hosted by the supervisor).
        self.process_label = process_label
        #: Request-stage histograms + flight recorder, aggregated over
        #: every session in this process; its registry also holds the
        #: ``service.*`` counters (:meth:`count`).
        self.telemetry = telemetry.TelemetryHub(process=process_label)
        self.registry = self.telemetry.registry
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: The shared cell library every session publishes into; the
        #: store's own file lock serializes cross-process publishes, so
        #: shards simply point at the same directory.
        self.cellstore = None
        if library_dir is not None:
            from repro.cellstore import CellStore

            self.cellstore = CellStore(library_dir)
        self.chaos = chaos
        self.workers: dict[str, SessionWorker] = {}

    async def start(self) -> "RiotService":
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        await self._listen()
        # Session registries are context-scoped, so without this the
        # process-wide ``--metrics`` export would miss every session's
        # counters (and the request-stage histograms).
        obs_metrics.register_export_provider(self._session_metrics)
        return self

    def _session_metrics(self) -> dict:
        """Everything the process registry alone cannot see: session-
        scoped registries merged with the telemetry hub (the
        ``service.*`` counters, plus the session census and queue depth
        sampled now)."""
        hub = self.telemetry.registry
        hub.gauge("service.sessions").set(len(self.workers))
        hub.gauge("service.queued").set(self.inflight)
        snaps = [self.telemetry.snapshot()]
        for worker in self.workers.values():
            session = worker.session
            if session is not None and session._metrics is not None:
                snaps.append(session._metrics.snapshot())
        return obs_metrics.merge_snapshots(*snaps)

    def telemetry_snapshot(self) -> dict:
        """This process's full metrics view — process registry, every
        session's scoped registry, the request-stage histograms, and
        the service counters — merged into one snapshot (what a shard
        piggybacks on its heartbeat pong)."""
        return obs_metrics.merge_snapshots(
            obs_metrics.registry().snapshot(), self._session_metrics()
        )

    # -- session commands: executed here -------------------------------------

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        if envelope.generation is not None:
            self.count("direct")
            refused = self._check_direct(envelope)
            if refused is not None:
                self.count("errors")
                return wire.encode_error(envelope.id, refused)
        if self.shed_at is not None and self.inflight >= self.shed_at:
            self.count("shed")
            return wire.encode_error(
                envelope.id,
                OverloadedError(
                    f"shard has {self.inflight} request(s) in flight "
                    f"(shed threshold {self.shed_at}); retry later",
                    retry_after_ms=min(2000, 25 * self.inflight + 25),
                ),
            )
        try:
            worker = self._worker(envelope.session)
        except ServiceError as exc:
            self.count("errors")
            return wire.encode_error(envelope.id, exc)
        try:
            return await worker.execute(envelope)
        except BackpressureError as exc:
            self.count("backpressure")
            return wire.encode_error(envelope.id, exc)

    def _check_direct(self, envelope) -> SessionMovedError | None:
        """Validate a direct-to-shard request's route lease.  ``None``
        when the lease is good (always, on a single-process server —
        the connection already is the data path)."""
        if self.shard_index is None:
            return None
        if self._ring is not None:
            owner = self._ring.shard_for(envelope.session)
            if owner != self.shard_index:
                return SessionMovedError(
                    f"session {envelope.session!r} lives on shard "
                    f"{owner}, not {self.shard_index}; re-route via the "
                    "supervisor",
                    detail=wire.ErrorDetail(shard=owner),
                )
        if envelope.generation != self.generation:
            # This shard restarted since the lease was issued: the WAL
            # has been replayed and the address may have been handed
            # around, so the client must refresh before trusting it.
            return SessionMovedError(
                f"route lease generation {envelope.generation} is stale "
                f"(shard {self.shard_index} is at {self.generation}); "
                "refresh the route",
                retry_after_ms=25,
                detail=wire.ErrorDetail(
                    shard=self.shard_index,
                    generation=self.generation,
                    host=self.host,
                    port=self.port,
                ),
            )
        return None

    def _worker(self, name: str) -> SessionWorker:
        worker = self.workers.get(name)
        if worker is None:
            self._admit(name, len(self.workers))
            worker = self.workers[name] = SessionWorker(self, name)
        return worker

    # -- the control plane ---------------------------------------------------

    async def _on_route(self, request) -> control.RouteResult:
        # No shards to redirect to: the connection is the data path.
        check_session_name(request.session)
        return control.RouteResult(session=request.session, direct=False)

    async def _on_ping(self, request) -> control.PingResult | None:
        if self.chaos is not None and self.chaos.drop_ping():
            return None  # simulate a wedged worker: no answer at all
        return control.PingResult(
            version=PROTOCOL_VERSION,
            sessions=len(self.workers),
            metrics=(
                self.telemetry_snapshot() if request.telemetry else None
            ),
        )

    async def _on_telemetry(self, request) -> control.TelemetryResult:
        snapshot = self.telemetry_snapshot()
        slowest, errored = (
            self.telemetry.flight() if request.slow else ([], [])
        )
        return control.TelemetryResult(
            process=self.process_label,
            pid=os.getpid(),
            metrics=snapshot,
            merged=snapshot,
            slowest=tuple(
                control.FlightRecord(**entry) for entry in slowest
            ),
            errored=tuple(
                control.FlightRecord(**entry) for entry in errored
            ),
        )

    async def _on_sessions(self, request) -> control.SessionsResult:
        return control.SessionsResult(
            sessions=tuple(
                control.SessionInfo(
                    name=w.name,
                    queued=w.depth,
                    executed=w.executed,
                    failed=w.failed,
                    journal=(
                        str(w.journal_path)
                        if w.journal_path is not None
                        else None
                    ),
                )
                for w in self.workers.values()
            )
        )

    async def _on_stats(self, request) -> control.ServiceStatsResult:
        # Without the process-wide registry: an in-process host
        # (tests, benchmarks) shares it, and its counts are not this
        # service's.
        return telemetry.stats_result(
            self._session_metrics(), own="service"
        )

    async def _on_shutdown(self, request) -> control.ShutdownResult:
        return control.ShutdownResult(
            sessions=len(self.workers),
            journaled=sum(
                1
                for w in self.workers.values()
                if w.journal_path is not None
            ),
        )

    async def _drain(self) -> None:
        """Finish queued commands, checkpoint every WAL."""
        for worker in list(self.workers.values()):
            await worker.stop()
        # Leave one final merged snapshot behind for the ``--metrics``
        # export (the scoped session registries die with the workers).
        final = self._session_metrics()
        obs_metrics.unregister_export_provider(self._session_metrics)
        obs_metrics.register_export_provider(lambda: final)


class ServiceThread(ServerThread):
    """Run a :class:`RiotService` on a background thread's event loop."""

    server_class = RiotService

    @property
    def service(self) -> RiotService | None:
        return self.server


# -- the serve subcommand ----------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = server_parser(
        "python -m repro serve",
        "Host many concurrent Riot editor sessions over newline-"
        "delimited JSON (protocol v1).  Each session gets its own "
        "editor, stock cell library and, with --journal-dir, its "
        "own crash-safe write-ahead journal.",
        max_sessions=32,
        shed_at=256,
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="run a supervisor over this many crash-isolated worker "
             "processes (default 0: single process, no supervisor); "
             "sessions map to shards by consistent hash and resume "
             "from their WALs when a dead shard is restarted",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="supervisor mode: SIGKILL a shard whose health ping goes "
             "unanswered this long (default 2.0); raise it for "
             "saturating workloads where a busy-but-healthy shard may "
             "be slow to reach the ping",
    )
    args = parser.parse_args(argv)
    common = server_kwargs(args)
    if args.shards > 0:
        from repro.service.supervisor import Supervisor

        trace.set_process_label("supervisor")
        return run_cli(
            args,
            lambda: Supervisor(
                shards=args.shards,
                shed_at=args.shed_at,
                heartbeat_timeout=args.heartbeat_timeout,
                trace_path=args.trace,
                **common,
            ),
        )
    from repro.service.chaos import ChaosPolicy

    return run_cli(
        args, lambda: RiotService(chaos=ChaosPolicy.from_env(), **common)
    )


if __name__ == "__main__":
    sys.exit(main())
