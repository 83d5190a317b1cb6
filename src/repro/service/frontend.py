"""The protocol-v1 socket front end, written once.

The single-process server, every shard and the supervisor each listen
on one newline-JSON socket, and :class:`LineServer` is that socket.
Also here: the one session-name rule, the thread harness behind
``ServiceThread`` and ``SupervisorThread``, and the flags and start
path of the ``serve`` and shard command lines.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import re
import signal
import threading

from repro.api import wire
from repro.api.codec import from_jsonable
from repro.api.errors import BadRequest
from repro.api.manifest import build_manifest
from repro.api.types import PROTOCOL_VERSION
from repro.cli import add_obs_flags, obs_from_flags
from repro.errors import ReproError
from repro.service import control
from repro.service.errors import (
    BadSessionName,
    ServiceError,
    SessionLimitError,
    ShutdownError,
)

#: Session names double as WAL file stems, so keep them path-safe.
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def check_session_name(name: str) -> None:
    """Refuse (``service.bad_session``) a name that is not path-safe."""
    if not _SESSION_NAME.match(name):
        raise BadSessionName(
            f"bad session name {name!r} (want [A-Za-z0-9._-], "
            "64 chars max, not starting with . or -)"
        )


class LineServer:
    """One listening socket: the port, the per-connection read loop,
    line dispatch (parse, ``service.*`` control, the closing check, then
    the session-command hook) and the graceful shutdown.  A subclass
    sets ``registry``, ``max_sessions`` and ``process_label`` and keeps
    its own ``_on_<name>`` control handlers (``hello`` and ``describe``
    are here), ``async _session_command(envelope)`` → response line,
    and ``async _drain()``, run on shutdown before the hang-up."""

    #: Prefix of this process's ``connections``/``requests``/``errors``
    #: counters (the supervisor's differ from the shards').
    counter_prefix = "service"
    #: What ``service.hello`` advertises.
    capabilities: tuple[str, ...] = ("telemetry",)
    #: Fault-injection policy (:class:`repro.service.chaos.ChaosPolicy`),
    #: normally ``None``; set by ``REPRO_CHAOS`` runs.
    chaos = None

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._conn_writers: set = set()
        self._closing = False
        self._closed = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None

    def count(self, name: str, n: int = 1) -> None:
        """Bump this process's ``<prefix>.<name>`` counter."""
        self.registry.counter(f"{self.counter_prefix}.{name}").inc(n)

    def _admit(self, name: str, census: int) -> None:
        """Admit a new session beside the ``census`` already admitted."""
        check_session_name(name)
        if census >= self.max_sessions:
            raise SessionLimitError(
                f"session limit reached ({self.max_sessions})"
            )

    async def _listen(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self._closed.wait()

    # -- connections --------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self.count("connections")
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, OSError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_line(self, line: bytes, writer, write_lock) -> None:
        self.count("requests")
        response = await self._respond(line)
        if response is None:  # chaos swallowed it (drop-heartbeat)
            return
        async with write_lock:
            with contextlib.suppress(ConnectionResetError, OSError):
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
        if self.chaos is not None:
            # The acknowledgement point: the response is on the wire.
            self.chaos.after_response(line, response)

    async def _respond(self, line: bytes) -> str | None:
        try:
            envelope = wire.parse_request(line)
        except ReproError as exc:
            self.count("errors")
            return wire.encode_error(_fish_id(line), exc)
        if envelope.method.startswith("service."):
            try:
                return await self._control(envelope)
            except ReproError as exc:
                self.count("errors")
                return wire.encode_error(envelope.id, exc)
        if self._closing:
            return wire.encode_error(
                envelope.id, ShutdownError("service is shutting down")
            )
        if not envelope.session:
            self.count("errors")
            return wire.encode_error(
                envelope.id,
                BadRequest(
                    f"method {envelope.method!r} needs a 'session' field"
                ),
            )
        return await self._session_command(envelope)

    # -- the control plane ---------------------------------------------------

    async def _control(self, envelope: wire.RequestEnvelope) -> str | None:
        request_cls, _ = control.control_types(envelope.method)
        request = from_jsonable(
            request_cls, dict(envelope.params), where=envelope.method
        )
        name = envelope.method.removeprefix("service.")
        result = await getattr(self, f"_on_{name}")(request)
        if result is None:  # chaos dropped a ping: no answer at all
            return None
        if name == "shutdown":  # ack, then drain in the background
            self.request_shutdown()
        return wire.encode_result(envelope.id, envelope.method, result)

    async def _on_hello(self, request) -> control.HelloResult:
        return control.HelloResult(
            version=PROTOCOL_VERSION,
            server=self.process_label,
            capabilities=self.capabilities,
        )

    async def _on_describe(self, request):
        return build_manifest(control.CONTROL)

    # -- shutdown -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain()
        # Hang up on open connections so their handler tasks finish
        # before the loop does (a cancelled readline is noisy).
        for writer in list(self._conn_writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        await asyncio.sleep(0.01)
        self._closed.set()


def _fish_id(line: bytes):
    """Best-effort request id recovery from an unparseable envelope."""
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(data, dict):
        id = data.get("id")
        if isinstance(id, (int, str)):
            return id
    return None


# -- in-process harness (tests, benchmarks) ---------------------------------


class ServerThread:
    """Run a :class:`LineServer` on a background thread's event loop.

    A context manager; a subclass binds ``server_class``, whose
    constructor takes the keyword arguments::

        with ServiceThread(journal_dir=tmp) as srv:
            client = ServiceClient(*srv.address, session="alice")

    A failed start re-raises its own error.  For tests: under the GIL,
    in-process sessions overlap their waits but not their compute.
    """

    server_class: type
    #: Seconds :meth:`start` waits for the server to listen, and
    #: :meth:`stop` for it to drain.
    timeout = 30.0

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self.server: LineServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        name = self.server_class.__name__
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name=f"riot-{name.lower()}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=self.timeout):
            raise ServiceError(f"{name} thread failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.server = await self.server_class(**self._kwargs).start()
        except BaseException as exc:
            self._startup_error = exc
        self._ready.set()
        if self._startup_error is None:
            await self.server.serve_forever()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def stop(self) -> None:
        if self.server is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=self.timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- the command lines -------------------------------------------------------


def server_parser(
    prog: str, description: str, *, max_sessions: int, shed_at: int | None
) -> argparse.ArgumentParser:
    """A parser with the flags every listening process takes (plus
    ``--trace``/``--metrics``); the caller adds its own."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free one, printed at startup)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=max_sessions,
        help="refuse new session names beyond this many "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="per-session write-ahead journals (NAME.wal) live here; "
             "an existing journal is recovered when its session opens",
    )
    parser.add_argument(
        "--library-dir", metavar="DIR", default=None,
        help="shared cell library (repro.cellstore) enabling the "
             "library.* commands; sessions — across every shard — "
             "publish and consume versioned cells here",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (default 30)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="per-session command queue bound; a full queue answers "
             "service.backpressure (default 16)",
    )
    parser.add_argument(
        "--shed-at", type=int, default=shed_at,
        help="sharded mode: each shard refuses session commands "
             "(service.overloaded, with a retry_after_ms hint) once it "
             "has this many in flight (default %(default)s; None: never)",
    )
    add_obs_flags(parser)
    return parser


def server_kwargs(args) -> dict:
    """Constructor keywords from the shared flags but ``--shed-at``."""
    names = "host port max_sessions queue_limit timeout journal_dir library_dir"
    return {name: getattr(args, name) for name in names.split()}


def run_cli(args, make_server, *, on_listening=None) -> int:
    """Start ``make_server()``, print ``listening on HOST:PORT``, run
    ``on_listening(server)``, and serve until ``service.shutdown``,
    SIGINT or SIGTERM drains it, under ``--trace``/``--metrics``."""

    async def amain() -> None:
        server = await make_server().start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, server.request_shutdown)
        if on_listening is not None:
            on_listening(server)
        await server.serve_forever()

    with obs_from_flags(args.trace, args.metrics):
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(amain())
    return 0
