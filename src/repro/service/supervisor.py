"""The supervisor: router + control plane in front of a sharded pool.

``python -m repro serve --shards N`` runs this process, on the shared
socket front end (:mod:`repro.service.frontend`), in front of N
:mod:`repro.service.shard` subprocesses.  It owns the routing
decision: sessions map to shards by consistent hash
(:class:`HashRing`), so a session name lands on the same shard across
requests, connections *and shard restarts*.  A session command has
exactly one path — client → ``service.route`` lease → the shard's own
socket:

* ``service.route`` answers the owning shard's listening address plus
  a lease: the shard index, its restart *generation*, and a TTL.  The
  client dials the shard directly and stamps the generation on every
  request; the shard answers a stale one with ``service.moved``.
* A session command sent to this socket is admitted like a route
  request, then answered — never forwarded — with ``service.moved``
  carrying the owning shard's coordinates, or with
  ``service.shard_failed`` / ``service.overloaded`` while that shard
  is down.

Shard data ports are *pinned* across restarts (the respawn reuses the
dead shard's port), so a stale lease usually still points at the
right socket; only the generation moves.

Robustness model, in order of the request path:

* **Admission control** — a new session name beyond ``max_sessions``
  answers ``service.session_limit``; each shard with ``shed_at``
  commands in flight answers ``service.overloaded`` with a
  ``retry_after_ms`` pacing hint instead of buffering unboundedly.
* **Crash isolation** — a shard death (exit, SIGKILL, heartbeat
  timeout) drops only that shard's connections; until it is back,
  routing its sessions answers ``service.shard_failed``.  Every other
  shard keeps serving untouched.
* **Supervision** — the dead shard is restarted under a
  :class:`~repro.service.health.RestartGovernor`: prompt restart after
  a life that served session commands, exponential backoff for crash
  loops, and a circuit breaker that stops restarting a shard that
  never serves (routing then answers ``service.overloaded`` until the
  cooldown ends).
* **Recovery** — each shard owns a WAL directory
  (``journal_dir/shard-K``); on restart the supervisor warms every
  affected session back up, which salvages + replays its WAL — the
  paper's REPLAY recovery, per seat, automated.

Heartbeats ride the ordinary wire: a telemetry ``service.ping`` down
each shard connection brings back the shard's metrics snapshot (which
is also how the breaker sees a life's progress), and a shard silent
past the timeout is SIGKILLed — a wedged process is as dead as an
exited one.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.api import wire
from repro.api.codec import from_jsonable
from repro.api.types import PROTOCOL_VERSION
from repro.errors import ReproError
from repro.obs import metrics
from repro.service import control, telemetry
from repro.service.errors import (
    OverloadedError,
    ServiceError,
    SessionMovedError,
    ShardFailedError,
)
from repro.service.frontend import LineServer, ServerThread
from repro.service.health import RestartGovernor

#: Extra margin on the first restart's ``retry_after_ms`` hint: rough
#: worst-case interpreter start + listen time for a shard subprocess.
_SPAWN_ESTIMATE_MS = 500


class HashRing:
    """Consistent hashing of session names onto shard indexes.

    Each shard owns ``vnodes`` points on a ring keyed by SHA-1, and a
    session maps to the owner of the first point at or after its own
    hash.  Deterministic across processes and Python versions (no
    ``hash()``), stable under restarts, and adding a shard moves only
    ~1/N of the keyspace.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for index in range(shards):
            for v in range(vnodes):
                points.append((self._hash(f"shard-{index}#{v}"), index))
        points.sort()
        self._keys = [p[0] for p in points]
        self._owners = [p[1] for p in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def shard_for(self, session: str) -> int:
        point = bisect.bisect_right(self._keys, self._hash(session))
        if point == len(self._keys):
            point = 0
        return self._owners[point]


class ShardHandle:
    """One supervised worker process (across its restarts)."""

    def __init__(self, supervisor: "Supervisor", index: int) -> None:
        self.supervisor = supervisor
        self.index = index
        self.proc: asyncio.subprocess.Process | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.alive = False
        #: Bumped on every death; guards stale pump/watcher callbacks
        #: *and* is the route-lease generation clients stamp on direct
        #: requests (the shard is spawned with ``--generation`` set to
        #: it, so both sides agree).
        self.generation = 0
        #: The shard's own listening address — the direct data plane.
        #: ``data_port`` is pinned across restarts: the respawn asks
        #: for the same port, so stale leases still point somewhere
        #: that answers (with ``service.moved`` and the new
        #: generation).  Reset to ``None`` when a pinned respawn fails
        #: (port stolen) so the next attempt falls back to port 0.
        self.data_host: str | None = None
        self.data_port: int | None = None
        #: Supervisor-assigned uid -> response future, for the
        #: supervisor's own calls (heartbeats, warm-ups, fan-out).
        self.pending: dict[int, asyncio.Future] = {}
        self.uids = itertools.count(1)
        self.restarts = 0
        #: The latest metrics snapshot this shard piggybacked on a
        #: heartbeat pong (``None`` until the first one answers, and
        #: while the shard is down).
        self.last_metrics: dict | None = None
        #: ok responses to the supervisor's own session commands (the
        #: warm-ups) in the current life.
        self.acked = 0
        self.governor = RestartGovernor(**supervisor.governor_kwargs)
        #: ms estimate handed out in shard_failed errors while down.
        self.retry_hint_ms = _SPAWN_ESTIMATE_MS
        self.restart_task: asyncio.Task | None = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid if (self.proc and self.alive) else None

    def made_progress(self) -> bool:
        """Did this life serve a session command?  Direct traffic shows
        only in the shard's pong snapshot; warm-ups are acknowledged on
        the supervisor's own connection, pong or not."""
        served = self.last_metrics or {}
        ok = served.get("rpc.requests", 0) - served.get("rpc.errors", 0)
        return self.acked > 0 or ok > 0

    def failure(self, why: str) -> ShardFailedError:
        """``service.shard_failed`` for this shard, with the restart
        pacing hint."""
        return ShardFailedError(
            f"shard {self.index} {why}",
            retry_after_ms=self.retry_hint_ms,
            detail=wire.ErrorDetail(
                shard=self.index, generation=self.generation
            ),
        )

    def unavailable(self) -> ServiceError:
        """Why this down shard cannot take a session right now."""
        if self.governor.circuit_open:
            return OverloadedError(
                f"shard {self.index} is crash-looping; circuit open",
                retry_after_ms=self.governor.retry_after_ms(),
            )
        return self.failure("is restarting")


class Supervisor(LineServer):
    """Accept/route server over a pool of shard subprocesses."""

    #: Its own counters are ``supervisor.*``, so they never sum with
    #: the shards' ``service.*`` counters in a merge.
    counter_prefix = "supervisor"
    capabilities = ("direct_routing", "telemetry")
    process_label = "supervisor"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = 2,
        max_sessions: int = 256,
        queue_limit: int = 16,
        timeout: float = 30.0,
        shed_at: int = 256,
        journal_dir: str | Path | None = None,
        library_dir: str | Path | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        spawn_timeout: float = 30.0,
        governor_kwargs: dict | None = None,
        trace_path: str | None = None,
        route_lease: float = 5.0,
    ) -> None:
        if shed_at < 1:
            raise ValueError("shed_at must be >= 1")
        super().__init__(host, port)
        self.shard_count = shards
        self.max_sessions = max_sessions
        self.queue_limit = queue_limit
        self.timeout = timeout
        self.shed_at = shed_at
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        #: One store directory shared by every shard: the store's own
        #: file lock is the cross-process publish serialization point.
        self.library_dir = (
            Path(library_dir) if library_dir is not None else None
        )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.spawn_timeout = spawn_timeout
        #: How long a ``service.route`` lease is good for, in seconds.
        self.route_lease = route_lease
        self.governor_kwargs = governor_kwargs or {}
        #: When the supervisor itself is being traced, each shard gets
        #: ``--trace <trace_path>.shard<i>`` so a run leaves one trace
        #: file per process — the set ``tools/check_trace.py`` stitches.
        self.trace_path = trace_path
        self.registry = metrics.MetricsRegistry()
        self.ring = HashRing(shards)
        self.shards = [ShardHandle(self, i) for i in range(shards)]
        #: session name -> shard index (the admission-control census).
        self.session_shard: dict[str, int] = {}
        self._heartbeat_tasks: list[asyncio.Task] = []
        self._background: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "Supervisor":
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        await asyncio.gather(*(self._spawn(h) for h in self.shards))
        await self._listen()
        for handle in self.shards:
            self._heartbeat_tasks.append(
                asyncio.ensure_future(self._heartbeat(handle))
            )
        metrics.register_export_provider(self._telemetry_export)
        return self

    def _telemetry_export(self) -> dict:
        """The ``--metrics`` contribution beyond the process registry:
        the supervisor's own counters plus every shard's latest
        piggybacked snapshot under a ``shard<i>.`` prefix."""
        out = dict(self.registry.snapshot())
        for handle in self.shards:
            for name, value in (handle.last_metrics or {}).items():
                out[f"shard{handle.index}.{name}"] = value
        return out

    def _spawn_background(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # -- shard processes -----------------------------------------------------

    def _shard_command(self, handle: ShardHandle) -> list[str]:
        journal_dir = trace_path = None
        if self.journal_dir is not None:
            journal_dir = self.journal_dir / f"shard-{handle.index}"
        if self.trace_path is not None:
            trace_path = f"{self.trace_path}.shard{handle.index}"
        flags = {
            "--host": "127.0.0.1",
            # Pin the data port across restarts (0 only the first
            # life): stale route leases keep pointing at a socket
            # that answers, so redirected clients recover in place.
            "--port": handle.data_port or 0,
            "--index": handle.index,
            "--shards": self.shard_count,
            "--generation": handle.generation,
            "--shed-at": self.shed_at,
            "--max-sessions": self.max_sessions,
            "--queue-limit": self.queue_limit,
            "--timeout": self.timeout,
            "--journal-dir": journal_dir,
            "--library-dir": self.library_dir,
            "--trace": trace_path,
        }
        cmd = [sys.executable, "-m", "repro.service.shard"]
        for flag, value in flags.items():
            if value is not None:  # unset: the shard's default
                cmd += [flag, str(value)]
        return cmd

    @staticmethod
    def _shard_env() -> dict[str, str]:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        return env

    async def _spawn(self, handle: ShardHandle) -> None:
        """Start one shard life: subprocess, handshake, connection."""
        proc = await asyncio.create_subprocess_exec(
            *self._shard_command(handle),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self._shard_env(),
        )
        try:
            line = await asyncio.wait_for(
                proc.stdout.readline(), self.spawn_timeout
            )
            text = line.decode("utf-8", "replace").strip()
            if not text.startswith("listening on "):
                raise ServiceError(
                    f"shard {handle.index} did not start: {text!r}"
                )
            host, _, port = text.removeprefix("listening on ").rpartition(":")
            reader, writer = await asyncio.open_connection(host, int(port))
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            raise
        handle.proc = proc
        handle.reader = reader
        handle.writer = writer
        handle.data_host = host
        handle.data_port = int(port)
        handle.acked = 0
        handle.alive = True
        generation = handle.generation
        self._spawn_background(self._pump(handle, generation))
        self._spawn_background(self._watch_exit(handle, generation))
        if handle.restarts and self.journal_dir is not None:
            self._spawn_background(self._resume_sessions(handle, generation))

    async def _watch_exit(self, handle: ShardHandle, generation: int) -> None:
        proc = handle.proc
        await proc.wait()
        self._shard_down(
            handle, generation, f"exited with code {proc.returncode}"
        )

    async def _pump(self, handle: ShardHandle, generation: int) -> None:
        """Hand shard responses to the supervisor calls awaiting them."""
        reader = handle.reader
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                try:
                    data = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if not isinstance(data, dict):
                    continue
                future = handle.pending.pop(data.get("id"), None)
                if future is None:
                    continue
                if data.get("ok") and not str(
                    data.get("method") or ""
                ).startswith("service."):
                    # A warm-up served: the crash-loop breaker resets.
                    handle.acked += 1
                    handle.governor.record_progress()
                if not future.done():
                    future.set_result(data)
        except (ConnectionResetError, OSError):
            pass
        self._shard_down(handle, generation, "connection lost")

    def _shard_down(
        self, handle: ShardHandle, generation: int, reason: str
    ) -> None:
        """One death, handled exactly once per shard life."""
        if handle.generation != generation or not handle.alive:
            return
        handle.alive = False
        handle.generation += 1
        if handle.proc is not None and not self._closing:
            # During graceful shutdown the EOF on the shard connection
            # is the shard *draining*, not dying: it still has WALs to
            # checkpoint and its trace/metrics files to write, and
            # ``_drain`` already waits on (and, past the deadline,
            # kills) the process.
            with contextlib.suppress(ProcessLookupError):
                handle.proc.kill()
        if handle.writer is not None:
            handle.writer.close()
        pending, handle.pending = handle.pending, {}
        self.count("shard_failures", len(pending))
        failure = handle.failure(
            f"died ({reason}) with this request in flight; its sessions "
            "resume from their WALs after restart"
        )
        for future in pending.values():
            if not future.done():
                future.set_exception(failure)
        if self._closing:
            return
        self.registry.counter("service.shard_restarts").inc()
        self._schedule_restart(handle, progress=handle.made_progress())
        handle.last_metrics = None

    def _schedule_restart(self, handle: ShardHandle, *, progress: bool):
        """Book one failed life with the governor; restart when it says."""
        decision = handle.governor.record_death(progress=progress)
        handle.restarts += 1
        handle.retry_hint_ms = int(decision.delay * 1000) + _SPAWN_ESTIMATE_MS
        handle.restart_task = asyncio.ensure_future(
            self._restart_later(handle, decision.delay)
        )

    async def _restart_later(self, handle: ShardHandle, delay: float) -> None:
        await asyncio.sleep(delay)
        if self._closing or handle.alive:
            return
        if not handle.governor.may_attempt():
            return  # circuit opened meanwhile; its own probe is scheduled
        generation = handle.generation
        try:
            await self._spawn(handle)
        except (ServiceError, OSError, asyncio.TimeoutError):
            if self._closing:
                return
            # The pinned port may be what killed the spawn (stolen by
            # another process while the shard was down); give the next
            # attempt a fresh one.
            handle.data_port = None
            handle.generation = generation + 1
            self._schedule_restart(handle, progress=False)

    async def _heartbeat(self, handle: ShardHandle) -> None:
        """Ping the shard on the wire; silence past the timeout kills."""
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            if self._closing:
                return
            if not handle.alive:
                continue
            generation = handle.generation
            try:
                await asyncio.wait_for(
                    self._ping(handle), self.heartbeat_timeout
                )
            except asyncio.TimeoutError:
                self._shard_down(handle, generation, "heartbeat timeout")
            except ServiceError:
                pass  # already detected down by another path

    async def _ping(self, handle: ShardHandle) -> None:
        """A telemetry ping: keep the metrics snapshot the pong
        piggybacks, unless the shard died meanwhile."""
        generation = handle.generation
        data = await self._shard_call(
            handle, "service.ping", params={"telemetry": True}
        )
        snapshot = (data.get("result") or {}).get("metrics")
        if data.get("ok") and isinstance(snapshot, dict):
            if handle.generation == generation:  # not a dead life's
                handle.last_metrics = snapshot

    async def _refresh(self, handle: ShardHandle) -> None:
        """Refresh one live shard's snapshot on demand; a shard that
        does not answer keeps its last heartbeat's."""
        if not handle.alive:
            return
        with contextlib.suppress(
            ServiceError, ReproError, asyncio.TimeoutError, OSError
        ):
            await asyncio.wait_for(self._ping(handle), self.heartbeat_timeout)

    # -- supervisor calls ----------------------------------------------------

    async def _shard_call(
        self,
        handle: ShardHandle,
        method: str,
        *,
        session: str | None = None,
        params: dict | None = None,
    ) -> dict:
        """A supervisor-originated request down the shard connection
        (heartbeats, warm-ups, fan-out, shutdown); the parsed response."""
        if not handle.alive:
            raise handle.unavailable()
        uid = next(handle.uids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.pending[uid] = future
        line = wire.canonical_json(
            wire.RequestEnvelope(
                method=method, params=params or {}, id=uid, session=session
            )
        )
        try:
            handle.writer.write(line.encode("utf-8") + b"\n")
            await handle.writer.drain()
            return await future
        except (ConnectionResetError, OSError):
            raise handle.failure("connection failed mid-send") from None
        finally:
            handle.pending.pop(uid, None)

    async def _resume_sessions(
        self, handle: ShardHandle, generation: int
    ) -> None:
        """Warm every session of a restarted shard back up: the first
        command a session sees salvages + replays its WAL, so a cheap
        read (``cells``) performs the recovery eagerly."""
        names = sorted(
            name
            for name, index in self.session_shard.items()
            if index == handle.index
        )
        for name in names:
            if self._closing or not handle.alive:
                return
            if handle.generation != generation:
                return
            with contextlib.suppress(ServiceError, ReproError):
                await self._shard_call(handle, "cells", session=name)

    # -- session commands: redirected to their shard -------------------------

    async def _session_command(self, envelope: wire.RequestEnvelope) -> str:
        """Never forwarded: the answer names the session's shard (or
        says why it cannot take the session now)."""
        self.count("errors")
        try:
            handle = self._live_shard(envelope.session)
        except ServiceError as exc:
            return wire.encode_error(envelope.id, exc)
        return wire.encode_error(
            envelope.id,
            SessionMovedError(
                f"session {envelope.session!r} lives on shard "
                f"{handle.index} at {handle.data_host}:{handle.data_port}; "
                "send session commands there (see service.route)",
                detail=wire.ErrorDetail(
                    shard=handle.index,
                    generation=handle.generation,
                    host=handle.data_host,
                    port=handle.data_port,
                ),
            ),
        )

    def _live_shard(self, name: str) -> ShardHandle:
        """Admit ``name`` (the session census) and return its shard, if
        that shard is up."""
        index = self.session_shard.get(name)
        if index is None:
            self._admit(name, len(self.session_shard))
            index = self.ring.shard_for(name)
            self.session_shard[name] = index
            self.registry.gauge("supervisor.sessions").set(
                len(self.session_shard)
            )
        handle = self.shards[index]
        if not handle.alive:
            raise handle.unavailable()
        return handle

    # -- the control plane ---------------------------------------------------

    async def _on_ping(self, request) -> control.PingResult:
        return control.PingResult(
            version=PROTOCOL_VERSION,
            sessions=len(self.session_shard),
            metrics=(
                self.registry.snapshot() if request.telemetry else None
            ),
        )

    async def _on_route(self, request) -> control.RouteResult:
        """A direct lease on the session's shard.  Routing *admits* the
        session, and a down shard answers ``service.shard_failed`` (or
        ``service.overloaded`` with its circuit open) — the same codes a
        session command sent to this socket gets."""
        handle = self._live_shard(request.session)
        return control.RouteResult(
            session=request.session,
            direct=True,
            shard=handle.index,
            host=handle.data_host,
            port=handle.data_port,
            generation=handle.generation,
            lease_ms=int(self.route_lease * 1000),
        )

    async def _merged(self) -> dict:
        """The whole-service snapshot: every live shard's freshly pinged
        one merged with the supervisor's own counters."""
        await asyncio.gather(*(self._refresh(h) for h in self.shards))
        return metrics.merge_snapshots(
            self.registry.snapshot(),
            *((h.last_metrics or {}) for h in self.shards),
        )

    async def _on_telemetry(self, request) -> control.TelemetryResult:
        merged = await self._merged()
        slowest: list = []
        errored: list = []
        if request.slow:
            # Every request executes in one shard and is recorded
            # there, so the flight records all live in the shards.
            for _, result in await self._control_fanout(
                "service.telemetry",
                control.TelemetryResult,
                params={"slow": True},
            ):
                if result is not None:
                    slowest.extend(result.slowest)
                    errored.extend(result.errored)
            slowest.sort(key=lambda r: -r.total_us)
            del slowest[telemetry.KEEP:]
            del errored[telemetry.KEEP:]
        return control.TelemetryResult(
            process=self.process_label,
            pid=os.getpid(),
            metrics=self.registry.snapshot(),
            merged=merged,
            shards=tuple(
                control.ShardTelemetry(
                    index=h.index, alive=h.alive, metrics=h.last_metrics
                )
                for h in self.shards
            ),
            slowest=tuple(slowest),
            errored=tuple(errored),
        )

    async def _control_fanout(
        self, method: str, result_cls, *, params: dict | None = None
    ):
        """(handle, typed result | None) for every shard, concurrently."""

        async def one(handle: ShardHandle):
            if not handle.alive:
                return handle, None
            try:
                data = await asyncio.wait_for(
                    self._shard_call(handle, method, params=params),
                    self.heartbeat_timeout,
                )
                if not data.get("ok"):
                    return handle, None
                return handle, from_jsonable(
                    result_cls, data.get("result"), where=method
                )
            except (ServiceError, ReproError, asyncio.TimeoutError, OSError):
                return handle, None

        return await asyncio.gather(*(one(h) for h in self.shards))

    async def _on_sessions(self, request) -> control.SessionsResult:
        collected = await self._control_fanout(
            "service.sessions", control.SessionsResult
        )
        merged: list[control.SessionInfo] = []
        for handle, result in collected:
            if result is None:
                continue
            merged.extend(
                replace(info, shard=handle.index) for info in result.sessions
            )
        merged.sort(key=lambda info: info.name)
        return control.SessionsResult(sessions=tuple(merged))

    async def _on_stats(self, request) -> control.ServiceStatsResult:
        merged = await self._merged()
        shards = []
        for h in self.shards:
            snapshot = h.last_metrics or {}
            shards.append(
                control.ShardStats(
                    index=h.index,
                    pid=h.pid,
                    alive=h.alive,
                    restarts=h.restarts,
                    sessions=snapshot.get("service.sessions", 0),
                    queued=snapshot.get("service.queued", 0),
                    circuit_open=h.governor.circuit_open,
                )
            )
        return telemetry.stats_result(
            merged, own="supervisor", shards=tuple(shards)
        )

    async def _on_shutdown(self, request) -> control.ShutdownResult:
        return control.ShutdownResult(
            sessions=len(self.session_shard),
            journaled=(
                len(self.session_shard)
                if self.journal_dir is not None
                else 0
            ),
        )

    async def _drain(self) -> None:
        """Shut every shard down gracefully."""
        for handle in self.shards:
            if handle.restart_task is not None:
                handle.restart_task.cancel()
            if not handle.alive:
                continue
            # One last telemetry fetch, so the ``--metrics`` export
            # reflects the shard's final numbers, not its last
            # heartbeat's.
            await self._refresh(handle)
            # Graceful: the shard drains its queues and checkpoints
            # every WAL before exiting; SIGKILL only past the deadline.
            with contextlib.suppress(
                ServiceError, ReproError, asyncio.TimeoutError
            ):
                await asyncio.wait_for(
                    self._shard_call(handle, "service.shutdown"), 5.0
                )
            if handle.proc is not None:
                try:
                    await asyncio.wait_for(handle.proc.wait(), 30.0)
                except asyncio.TimeoutError:  # pragma: no cover - stuck shard
                    with contextlib.suppress(ProcessLookupError):
                        handle.proc.kill()
                    await handle.proc.wait()
            handle.alive = False
        for task in self._heartbeat_tasks:
            task.cancel()


# -- in-process harness (tests, benchmarks) ---------------------------------


class SupervisorThread(ServerThread):
    """Run a :class:`Supervisor` — over real shard subprocesses — on
    a background thread's event loop."""

    server_class = Supervisor
    timeout = 120.0

    @property
    def supervisor(self) -> Supervisor | None:
        return self.server
