"""The asyncio socket server hosting many editor sessions.

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

import argparse
import asyncio
import contextlib
import json
import os
import re
import signal
import sys
from pathlib import Path

from repro.api import wire
from repro.api.codec import from_jsonable
from repro.api.errors import BadRequest
from repro.api.manifest import build_manifest
from repro.api.session import Session
from repro.api.store import MemoryStore
from repro.api.types import PROTOCOL_VERSION
from repro.errors import ReproError
from repro.errors import error_code as wire_error_code
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.service import control, telemetry
from repro.service.errors import (
    BackpressureError,
    BadSessionName,
    OverloadedError,
    ServiceError,
    ServiceTimeout,
    SessionLimitError,
    SessionMovedError,
    ShutdownError,
)

#: Session names double as WAL file stems, so keep them path-safe.
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


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
                rec = trace.record("shard.queue", queue_s, 0.0)
                if rec is not None:
                    rec.trace_id = trace_id
                    rec.remote_parent = request_span.ref
            rec = trace.record(
                "handler.execute", handler_s, 0.0, method=envelope.method
            )
            if rec is not None:
                rec.trace_id = trace_id
                rec.remote_parent = request_span.ref
            if fsync_s > 0:
                rec = trace.record("wal.fsync.request", fsync_s, 0.0)
                if rec is not None:
                    rec.trace_id = trace_id
                    rec.remote_parent = request_span.ref
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


class RiotService:
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
        self.host = host
        self.port = port
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
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: The shared cell library every session publishes into; the
        #: store's own file lock serializes cross-process publishes, so
        #: shards simply point at the same directory.
        self.cellstore = None
        if library_dir is not None:
            from repro.cellstore import CellStore

            self.cellstore = CellStore(library_dir)
        #: Fault-injection policy (:class:`repro.service.chaos.ChaosPolicy`),
        #: normally ``None``; set by ``REPRO_CHAOS`` runs.
        self.chaos = chaos
        self.workers: dict[str, SessionWorker] = {}
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._closed: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._conn_writers: set = set()

    async def start(self) -> "RiotService":
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Session registries are context-scoped, so without this the
        # process-wide ``--metrics`` export would miss every session's
        # counters (and the request-stage histograms).
        obs_metrics.register_export_provider(self._session_metrics)
        return self

    def count(self, name: str) -> None:
        """Bump the ``service.<name>`` counter (thread-safe)."""
        self.telemetry.registry.counter(f"service.{name}").inc()

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

    # -- sessions ------------------------------------------------------------

    def _worker(self, name: str) -> SessionWorker:
        worker = self.workers.get(name)
        if worker is not None:
            return worker
        if not _SESSION_NAME.match(name):
            raise BadSessionName(
                f"bad session name {name!r} (want [A-Za-z0-9._-], "
                "64 chars max, not starting with . or -)"
            )
        if len(self.workers) >= self.max_sessions:
            raise SessionLimitError(
                f"session limit reached ({self.max_sessions})"
            )
        worker = self.workers[name] = SessionWorker(self, name)
        return worker

    # -- the control plane ---------------------------------------------------

    async def _control(self, envelope: wire.RequestEnvelope) -> str | None:
        request_cls, _ = control.control_types(envelope.method)
        request = from_jsonable(
            request_cls, dict(envelope.params), where=envelope.method
        )
        if envelope.method == "service.hello":
            result = control.HelloResult(
                version=PROTOCOL_VERSION,
                server=self.process_label,
                # No ``direct_routing``: this process has no shards to
                # redirect to — the connection already is the data path.
                capabilities=("telemetry",),
            )
        elif envelope.method == "service.route":
            if not _SESSION_NAME.match(request.session):
                raise BadSessionName(
                    f"bad session name {request.session!r} (want "
                    "[A-Za-z0-9._-], 64 chars max, not starting with "
                    ". or -)"
                )
            result = control.RouteResult(session=request.session, direct=False)
        elif envelope.method == "service.describe":
            result = build_manifest(control.CONTROL)
        elif envelope.method == "service.ping":
            if self.chaos is not None and self.chaos.drop_ping():
                return None  # simulate a wedged worker: no answer at all
            result = control.PingResult(
                version=PROTOCOL_VERSION,
                sessions=len(self.workers),
                metrics=(
                    self.telemetry_snapshot() if request.telemetry else None
                ),
            )
        elif envelope.method == "service.telemetry":
            snapshot = self.telemetry_snapshot()
            slowest, errored = (
                self.telemetry.flight() if request.slow else ([], [])
            )
            result = control.TelemetryResult(
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
        elif envelope.method == "service.sessions":
            result = control.SessionsResult(
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
        elif envelope.method == "service.stats":
            # Without the process-wide registry: an in-process host
            # (tests, benchmarks) shares it, and its counts are not
            # this service's.
            result = telemetry.stats_result(
                self._session_metrics(), own="service"
            )
        else:  # service.shutdown — ack, then drain in the background.
            result = control.ShutdownResult(
                sessions=len(self.workers),
                journaled=sum(
                    1
                    for w in self.workers.values()
                    if w.journal_path is not None
                ),
            )
            self.request_shutdown()
        return wire.encode_result(envelope.id, envelope.method, result)

    # -- shutdown -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe):
        stop accepting, finish queued commands, checkpoint every WAL."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for worker in list(self.workers.values()):
            await worker.stop()
        # Hang up on open connections so their handler tasks finish
        # before the loop does (a cancelled readline is noisy).
        for writer in list(self._conn_writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        # Leave one final merged snapshot behind for the ``--metrics``
        # export (the scoped session registries die with the workers).
        final = self._session_metrics()
        obs_metrics.unregister_export_provider(self._session_metrics)
        obs_metrics.register_export_provider(lambda: final)
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


class ServiceThread:
    """Run a :class:`RiotService` on a background thread's event loop.

    A context manager::

        with ServiceThread(journal_dir=tmp) as srv:
            client = ServiceClient(*srv.address, session="alice")

    Note the GIL applies: in-process, concurrent sessions overlap their
    waits but not their compute.  The benchmark drives a subprocess
    server for honest numbers; this harness is for tests.
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self.service: RiotService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = None
        self._ready = None

    def start(self) -> "ServiceThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="riot-service",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service thread failed to start")
        return self

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = await RiotService(**self._kwargs).start()
        self._ready.set()
        await self.service.serve_forever()

    @property
    def address(self) -> tuple[str, int]:
        return self.service.host, self.service.port

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- the serve subcommand ----------------------------------------------------


async def _amain(args) -> None:
    if args.shards > 0:
        from repro.service.supervisor import Supervisor

        trace.set_process_label("supervisor")
        service = await Supervisor(
            host=args.host,
            port=args.port,
            shards=args.shards,
            max_sessions=args.max_sessions,
            queue_limit=args.queue_limit,
            timeout=args.timeout,
            shed_at=args.shed_at,
            heartbeat_timeout=args.heartbeat_timeout,
            journal_dir=args.journal_dir,
            library_dir=args.library_dir,
            trace_path=args.trace,
        ).start()
        print(f"listening on {service.host}:{service.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, service.request_shutdown)
        await service.serve_forever()
        return
    from repro.service.chaos import ChaosPolicy

    service = await RiotService(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        journal_dir=args.journal_dir,
        library_dir=args.library_dir,
        chaos=ChaosPolicy.from_env(),
    ).start()
    print(f"listening on {service.host}:{service.port}", flush=True)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, service.request_shutdown)
    await service.serve_forever()


def main(argv: list[str] | None = None) -> int:
    from repro.cli import add_obs_flags, obs_from_flags

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Host many concurrent Riot editor sessions over newline-"
            "delimited JSON (protocol v1).  Each session gets its own "
            "editor, stock cell library and, with --journal-dir, its "
            "own crash-safe write-ahead journal."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free one, printed at startup)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=32,
        help="refuse new session names beyond this many (default 32)",
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
        "--shards", type=int, default=0,
        help="run a supervisor over this many crash-isolated worker "
             "processes (default 0: single process, no supervisor); "
             "sessions map to shards by consistent hash and resume "
             "from their WALs when a dead shard is restarted",
    )
    parser.add_argument(
        "--shed-at", type=int, default=256,
        help="supervisor mode: each shard refuses session commands "
             "(service.overloaded, with a retry_after_ms hint) once it "
             "has this many in flight (default 256)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="supervisor mode: SIGKILL a shard whose health ping goes "
             "unanswered this long (default 2.0); raise it for "
             "saturating workloads where a busy-but-healthy shard may "
             "be slow to reach the ping",
    )
    add_obs_flags(parser)
    args = parser.parse_args(argv)
    with obs_from_flags(args.trace, args.metrics):
        try:
            asyncio.run(_amain(args))
        except KeyboardInterrupt:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
