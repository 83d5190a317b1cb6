"""Workloads ``service_edit`` and ``service_mixed``: the seat over sockets.

Both run ``python -m repro serve --shards 2 --journal-dir DIR`` with
its shipped settings and drive 32 sessions from one process and one
generator thread, over at most one direct connection per shard
(``service.hello`` and ``service.route`` happen during set-up).  After
set-up a seeded priming stream of edits warms the shards and gives
every session a WAL whose content depends on the seed alone.

Load is open-loop: arrivals are a seeded Poisson stream at a fixed
offered rate, and every request is timed from the moment it was due to
be sent, so a stall in the server also delays the requests queued
behind it.  Each rate runs an unscored warm-up first.  A rate where the
generator itself ran late or ran hot is marked invalid instead of
scored.  The timed run searches for the knee: it bisects the offered
rate, on a log scale, between a floor and a ceiling that bracket it,
then walks a staircase of single tries around the bracket it found,
and ``max_rps`` is the staircase's mean rate, scaled to the
yardstick's speed (``reference.py``).  The traced run drives
a fixed ladder of three rates instead and splits their latency into
stages.

Every response carries the shard's own stage decomposition
(``shard_queue``, ``handler``, ``fsync``, and ``direct`` = the shard's
turnaround).  With the client's send lag and round trip these split
each request's latency into disjoint stages::

    latency = send_lag + transport + queue + compute + fsync + unattributed

with ``transport = round trip - direct``, ``compute = handler - fsync``
and ``unattributed = direct - queue - handler``.  The sum holds by
construction (``unattributed`` is the remainder); what the check can
catch is a negative remainder, i.e. shard stages that overlap.

After shutdown every session's WAL is read back with the repo's own
``wal`` loader and strictly replayed: it must hold exactly the
acknowledged edits (plus any that timed out, which the server still
finishes), in order.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import types as t
from repro.api.session import Session
from repro.api.wire import encode_request
from repro.core import wal
from repro.core.editor import RiotEditor
from repro.errors import ReproError
from repro.library.stock import filter_library
from repro.service.client import NO_RETRY, ServiceClient

from layers import LayerTracer
from reference import Yardstick
from stats import percentile

SESSIONS = 32
SHARDS = 2
LAMBDA = 250  # internal units per lambda (nmos technology)
CELL = "bench"
MOVED = "g0"  # the instance every edit targets
#: A rate passes when both classes meet this p99 (ms), nothing fails,
#: completions keep pace and the generator was valid.
P99_LIMIT_MS = 100.0
#: Completions keep pace when the last response of a rate arrives
#: within this long after its last send.
DRAIN_LIMIT_S = 0.5
#: The generator set the pace, not the server, when its send lag p99
#: (median block) or its CPU share passes these.
SEND_LAG_LIMIT_MS = 25.0
CLIENT_CPU_LIMIT = 0.8
#: A rate's requests of one class are cut into equal-time blocks of at
#: least this many requests.  A rate is judged by the median block's
#: percentiles: a stall of the shared host that spoils a few blocks
#: does not decide it, a stall the program causes in most blocks does.
#: With fewer than two blocks' worth of requests the rate is one block.
BLOCK_REQUESTS = 100
#: Server start-ups per run, before the timed phase and after it (the
#: last one before it serves the run): ``setup_s`` is their median, and
#: ``assemble_s`` keeps each cell-building request's fastest of their
#: 32 sessions each, so its samples come from both ends of the run.
#: Both, ``checks_s`` and ``max_rps`` are scaled to the yardstick's
#: pinned speed (``reference.py``), sampled in this process after every
#: start-up and every probe, so that a host slowdown lasting the whole
#: run does not read as a slower program: at the knee the shards run
#: out of CPU, so capacity follows the host's speed.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
#: Edits every session gets, in waves of one per session, right after
#: set-up.  The WALs they leave are what ``checks_s`` times, this many
#: times after priming and again after every probe.
PRIMING_EDITS = 40
CHECK_REPEATS = 3
#: Offered rates the knee search bisects, and tries per rate: a rate
#: passes when one try passes, since stalls of a shared host only ever
#: fail a try.  Then single tries on a staircase around the last
#: bracket.  Each try gets ``--seconds / ATTEMPT_SHARES``, the first
#: :data:`PROBE_WARMUP` of it unscored; a try past the knee stops early.
PROBES = 4
ATTEMPTS = 3
STAIRS = 10
ATTEMPT_SHARES = 15
PROBE_WARMUP = 0.2
#: A probe stops sending, and fails, when a session has this many
#: requests outstanding (the shard refuses past 16) or its oldest
#: request has waited this long: the rate is past the knee, and going
#: on would only make the shards refuse requests.
SESSION_DEPTH_LIMIT = 15
STUCK_S = 2.0
#: The traced run's ladder: names, and the share of ``--seconds`` each
#: rung gets.  Latency is reported at the nominal rung, so it gets the
#: samples; the others show how the stages move with load.
RUNG_NAMES = ("low", "nominal", "high")
RUNG_SHARES = (0.2, 0.6, 0.2)
#: Share of each rung spent in unscored warm-up.
WARMUP_SHARES = (0.3, 0.15, 0.3)


@dataclass(frozen=True)
class Workload:
    knee_bracket: tuple[int, int]  # rates the knee lies between (requests/s)
    rates: tuple[int, int, int]  # the traced ladder: low, nominal, high
    read_share: float  # share of requests that are ``check`` reads
    edit: str  # the edit method: ``rotate`` or ``move_by``
    populated: bool  # 8 placed nand + one nand replicated 4x2

    def setup_requests(self) -> list[tuple[str, object]]:
        """(method, typed request) pairs that build one session's cell."""
        requests = [("new_cell", t.NewCellRequest(name=CELL)),
                    ("create", t.CreateRequest(at=(0, 0), cell_name="nand", name=MOVED))]
        if self.populated:
            for k in range(1, 8):
                requests.append(("create", t.CreateRequest(
                    at=(k * 48 * LAMBDA, 0), cell_name="nand", name=f"g{k}")))
            requests.append(("create", t.CreateRequest(
                at=(0, 80 * LAMBDA), cell_name="nand", name="arr")))
            requests.append(("replicate", t.ReplicateRequest(name="arr", nx=4, ny=2)))
        return requests


#: The knees measured when this benchmark was written, on a 2-core
#: host: 1150 to 2300 requests/s (``service_edit``) and 420 to 810
#: (``service_mixed``, not in ``BENCHMARK.json``: its CPU-bound knee
#: follows the shared host's CPU speed).  Each bracket spans 8x around its knee, so
#: capacity can move by 2.8x either way and still be found.
WORKLOADS = {
    "service_edit": Workload((600, 4800), (300, 600, 1200), 0.0, "rotate", False),
    "service_mixed": Workload((150, 1200), (50, 100, 200), 0.7, "move_by", True),
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


# -- the server --------------------------------------------------------------


class Server:
    """One ``serve --shards 2`` process tree with its own WAL directory."""

    def __init__(self, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.wal_dir = workdir / "wal"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.log = open(workdir / "server.log", "wb")
        self.control: ServiceClient | None = None
        self.shard_pids: list[int] = []
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", str(SHARDS),
             "--journal-dir", str(self.wal_dir)],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.log, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.control = ServiceClient(host, int(port), retry=NO_RETRY)
            self.shard_pids = [s.pid for s in self.stats().shards]
        except BaseException:
            self.kill()
            raise

    def stats(self):
        return self.control.call("service.stats")

    def counters(self) -> dict:
        """The merged whole-service counters of ``service.telemetry``
        (histograms left out)."""
        merged = self.control.call("service.telemetry").merged
        return {k: v for k, v in merged.items() if isinstance(v, (int, float))}

    def cpu(self) -> tuple[float, float]:
        """(supervisor CPU s, summed shard CPU s)."""
        return _cpu_s(self.proc.pid), sum(_cpu_s(p) for p in self.shard_pids)

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_mb(p) for p in [self.proc.pid, *self.shard_pids])

    def shutdown(self) -> None:
        """Graceful drain (checkpoints every WAL), then reap the tree."""
        try:
            self.control.call("service.shutdown")
            self.proc.wait(timeout=60)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass  # no graceful drain: kill() below still reaps the tree
        self.kill()

    def kill(self) -> None:
        if self.control is not None:
            self.control.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        try:
            os.killpg(self.proc.pid, 9)  # any shard the supervisor left
        except ProcessLookupError:
            pass
        for pid in self.shard_pids:
            while os.path.exists(f"/proc/{pid}") and not _is_zombie(pid):
                time.sleep(0.01)
        self.proc.stdout.close()
        self.log.close()


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


# -- the data plane ----------------------------------------------------------


class ShardConn:
    """The generator's one connection to one shard."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.buffer = b""

    def lines(self) -> list[bytes]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("shard closed the connection")
        self.buffer += data
        *complete, self.buffer = self.buffer.split(b"\n")
        return complete


@dataclass
class Request:
    id: int
    session: int
    kind: str  # "edit" or "read"
    line: bytes
    params: dict
    due: float = 0.0  # intended send time (perf_counter)
    sent: float = 0.0
    done: float = 0.0
    stages: dict | None = None
    error: str | None = None
    scored: bool = False


@dataclass
class Seat:
    """The generator's view of the 32 sessions on their shards."""

    sessions: list[str]
    shard_of: list[int]
    generation: list[int]
    conns: dict[int, ShardConn]  # by shard index
    next_id: int = 0
    #: (request id, params) of each acknowledged edit per session —
    #: timed-out ones too, since the shard still executes them.
    applied: list[list[tuple[int, dict]]] = field(default_factory=list)

    def request(self, session: int, kind: str, method: str, request) -> Request:
        self.next_id += 1
        line = encode_request(
            method, request, id=self.next_id, session=self.sessions[session],
            generation=self.generation[session],
        ).encode() + b"\n"
        params = {"dx": getattr(request, "dx", 0), "dy": getattr(request, "dy", 0)}
        return Request(self.next_id, session, kind, line, params)

    def call(self, session: int, method: str, request) -> dict:
        """One blocking round trip (set-up only)."""
        req = self.request(session, "edit", method, request)
        conn = self.conns[self.shard_of[session]]
        conn.sock.sendall(req.line)
        while True:
            for raw in conn.lines():
                response = json.loads(raw)
                if response.get("id") == req.id:
                    if not response["ok"]:
                        raise RuntimeError(f"set-up {method} failed: {response['error']}")
                    return response["result"]


def build_cell(workload: Workload, seat: Seat, session: int) -> list[float]:
    """Build ``session``'s cell one request at a time; returns each
    request's seconds."""
    times = []
    for method, request in workload.setup_requests():
        begin = time.perf_counter()
        seat.call(session, method, request)
        times.append(time.perf_counter() - begin)
    return times


def set_up(workload: Workload, workdir: Path, src: Path) -> tuple:
    """Start the server and reach every session's shard, then build
    every session's cell; returns (server, seat, set-up seconds, each
    session's :func:`build_cell` seconds)."""
    start = time.perf_counter()
    server = Server(workdir, src)
    try:
        sessions = [f"seat{k:02d}" for k in range(SESSIONS)]
        routes = [server.control.call("service.route", session=s) for s in sessions]
        if not all(r.direct for r in routes):
            raise RuntimeError("service.route offered no direct path")
        conns: dict[int, ShardConn] = {}
        for r in routes:
            if r.shard not in conns:
                conns[r.shard] = ShardConn(r.host, r.port)
        seat = Seat(
            sessions=sessions,
            shard_of=[r.shard for r in routes],
            generation=[r.generation for r in routes],
            conns=conns,
            applied=[[] for _ in sessions],
        )
        ready = time.perf_counter()
        builds = [build_cell(workload, seat, session) for session in range(SESSIONS)]
    except BaseException:
        server.kill()  # the caller never receives it
        raise
    return server, seat, ready - start, builds


def edit_request(workload: Workload, seat: Seat, rng: random.Random,
                 session: int) -> Request:
    """One seeded edit of ``session``'s moved instance."""
    if workload.edit == "rotate":
        return seat.request(session, "edit", "rotate", t.RotateRequest(name=MOVED))
    dx = rng.choice((-10, 10)) * LAMBDA
    dy = rng.choice((-10, 10)) * LAMBDA
    return seat.request(session, "edit", "move_by",
                        t.MoveByRequest(name=MOVED, dx=dx, dy=dy))


def prime(workload: Workload, seat: Seat, rng: random.Random,
          problems: list[str]) -> None:
    """:data:`PRIMING_EDITS` waves of one edit per session, each wave
    sent at once and fully answered before the next."""
    for _ in range(PRIMING_EDITS):
        wave = {}
        for session in range(SESSIONS):
            req = edit_request(workload, seat, rng, session)
            wave[req.id] = req
            seat.conns[seat.shard_of[session]].sock.sendall(req.line)
        socks = {c.sock: c for c in seat.conns.values()}
        while wave:
            readable, _, _ = select.select(list(socks), [], [], 60)
            if not readable:
                raise RuntimeError(f"{len(wave)} priming edit(s) never answered")
            for sock in readable:
                for raw in socks[sock].lines():
                    response = json.loads(raw)
                    req = wave.pop(response["id"])
                    if not response["ok"]:
                        raise RuntimeError(f"priming {workload.edit} failed: "
                                           f"{response['error']}")
                    wrong = _check_result(req, response, workload)
                    if wrong:
                        problems.append(wrong)
                    seat.applied[req.session].append((req.id, req.params))


# -- the open-loop generator -------------------------------------------------


def schedule(workload: Workload, seat: Seat, rng: random.Random, rate: float,
             duration: float, warmup: float) -> list[Request]:
    """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds."""
    requests = []
    now = rng.expovariate(rate)
    while now < duration:
        session = rng.randrange(SESSIONS)
        if rng.random() < workload.read_share:
            req = seat.request(session, "read", "check", t.CheckRequest())
        else:
            req = edit_request(workload, seat, rng, session)
        req.due = now
        req.scored = now >= warmup
        requests.append(req)
        now += rng.expovariate(rate)
    return requests


def _check_result(req: Request, response: dict, workload: Workload) -> str | None:
    """A wrong acknowledgement, or ``None``."""
    result = response["result"]
    if req.kind == "read":
        keys = {"made", "near_misses", "overlapping", "unconnected"}
        if set(result) != keys or result["unconnected"] <= 0:
            return f"check answered {result}"
    elif result.get("name") != MOVED:
        return f"{workload.edit} answered {result}"
    elif workload.edit == "move_by" and (
        result["dx"], result["dy"]) != (req.params["dx"], req.params["dy"]):
        return f"move_by answered {result} for {req.params}"
    return None


def drive(seat: Seat, requests: list[Request], workload: Workload,
          problems: list[str], server: Server, stop_early: bool = False) -> dict:
    """Send ``requests`` on schedule and collect every response.  With
    ``stop_early``, stop sending once the rate is clearly past the knee
    (see :data:`SESSION_DEPTH_LIMIT`) and drop the unsent requests from
    ``requests``."""
    by_id = {r.id: r for r in requests}
    socks = {c.sock: c for c in seat.conns.values()}
    depth = [0] * SESSIONS
    outstanding = 0
    start = time.perf_counter() + 0.01
    for r in requests:
        r.due += start
    window = {"stopped": False}
    i = 0
    oldest = 0  # the first request sent and not yet answered
    n = len(requests)
    while i < n or outstanding:
        now = time.perf_counter()
        while oldest < i and requests[oldest].done:
            oldest += 1
        while i < n and requests[i].due <= now:
            req = requests[i]
            if stop_early and (depth[req.session] >= SESSION_DEPTH_LIMIT or (
                    oldest < i and now - requests[oldest].due > STUCK_S)):
                window["stopped"] = True
                n = i
                break
            if req.scored and "cpu" not in window:
                window.update(wall=now, cpu=time.process_time(), server=server.cpu())
            req.sent = time.perf_counter()
            seat.conns[seat.shard_of[req.session]].sock.sendall(req.line)
            depth[req.session] += 1
            outstanding += 1
            i += 1
            now = time.perf_counter()
        if i < n:
            timeout = max(0.0, requests[i].due - time.perf_counter())
        else:
            if "end" not in window:
                if "cpu" not in window:  # stopped inside the warm-up
                    window.update(wall=now, cpu=time.process_time(),
                                  server=server.cpu())
                window.update(end=time.perf_counter(), end_cpu=time.process_time(),
                              end_server=server.cpu())
            timeout = 60.0
        readable, _, _ = select.select(list(socks), [], [], timeout)
        if not readable and i >= n:
            problems.append(f"{outstanding} response(s) never arrived")
            break
        for sock in readable:
            lines = socks[sock].lines()
            done = time.perf_counter()
            for raw in lines:
                response = json.loads(raw)
                req = by_id.pop(response["id"])
                req.done = done
                req.stages = response.get("stages")
                depth[req.session] -= 1
                outstanding -= 1
                if response["ok"]:
                    wrong = _check_result(req, response, workload)
                    if wrong:
                        problems.append(wrong)
                    if req.kind == "edit":
                        seat.applied[req.session].append((req.id, req.params))
                else:
                    req.error = response["error"]["code"]
                    if req.error == "service.timeout" and req.kind == "edit":
                        # Answered late, but the shard still runs it.
                        seat.applied[req.session].append((req.id, req.params))
    del requests[n:]
    last_done = max((r.done for r in requests), default=0.0)
    window["drain_s"] = max(0.0, last_done - requests[-1].sent) if requests else 0.0
    return window


def _stage_ms(req: Request) -> dict:
    s = req.stages
    rtt = (req.done - req.sent) * 1000
    direct = s["direct"] / 1000
    queue = s["shard_queue"] / 1000
    handler = s["handler"] / 1000
    fsync = s["fsync"] / 1000
    return {
        "send_lag": (req.sent - req.due) * 1000,
        "transport": rtt - direct,
        "queue": queue,
        "compute": handler - fsync,
        "fsync": fsync,
        "unattributed": direct - queue - handler,
    }


def block_percentiles(requests: list[Request], value, q: float) -> list[float]:
    """The ``q``-th percentile of ``value(request)`` in each equal-time
    block of ``requests`` (see :data:`BLOCK_REQUESTS`)."""
    if not requests:
        return [0.0]
    first, last = requests[0].due, requests[-1].due
    count = max(1, len(requests) // BLOCK_REQUESTS)
    width = (last - first) / count or 1.0
    blocks: list[list[float]] = [[] for _ in range(count)]
    for r in requests:
        blocks[min(count - 1, int((r.due - first) / width))].append(value(r))
    return [percentile(b, q) for b in blocks if b]


def _latency_ms(r: Request) -> float:
    return (r.done - r.due) * 1000


def _send_lag_ms(r: Request) -> float:
    return (r.sent - r.due) * 1000


def score_rate(rate: int, requests: list[Request], window: dict,
               before: dict, after: dict, traced: bool, problems: list[str]) -> dict:
    """One offered rate's row: the seat's latency (median block), the
    generator's validity, whether the rate passed, and the server's
    counters and CPU over it; with ``traced``, each stage's p50/p99."""
    scored = [r for r in requests if r.scored]
    edits = [r for r in scored if r.kind == "edit"]
    reads = [r for r in scored if r.kind == "read"]
    wall = max(window["end"] - window["wall"], 1e-6)
    sup_before, shards_before = window["server"]
    sup_after, shards_after = window["end_server"]
    errors = sum(1 for r in requests if r.error)

    row = {
        "rate": rate,
        "sent": len(requests),
        "scored": len(scored),
        "errors": errors,
        "edit_p50_ms": statistics.median(block_percentiles(edits, _latency_ms, 50)),
        "edit_p99_ms": statistics.median(block_percentiles(edits, _latency_ms, 99)),
        "read_p50_ms": statistics.median(block_percentiles(reads, _latency_ms, 50)),
        "read_p99_ms": statistics.median(block_percentiles(reads, _latency_ms, 99)),
        "edit_p99_all_ms": percentile([_latency_ms(r) for r in edits], 99),
        "read_p99_all_ms": percentile([_latency_ms(r) for r in reads], 99),
        "stopped": window["stopped"],
        "edit_samples": len(edits),
        "read_samples": len(reads),
        "drain_s": window["drain_s"],
        "client.send_lag_ms.p99": statistics.median(
            block_percentiles(scored, _send_lag_ms, 99)),
        "client.cpu_util": (window["end_cpu"] - window["cpu"]) / wall,
        "shard.cpu_util": (shards_after - shards_before) / wall / SHARDS,
        "supervisor.cpu_s": sup_after - sup_before,
    }
    row["valid"] = (row["client.send_lag_ms.p99"] <= SEND_LAG_LIMIT_MS
                    and row["client.cpu_util"] <= CLIENT_CPU_LIMIT)
    row["passed"] = (
        row["valid"] and not window["stopped"] and errors == 0
        and row["drain_s"] <= DRAIN_LIMIT_S
        and row["edit_p99_ms"] <= P99_LIMIT_MS and row["read_p99_ms"] <= P99_LIMIT_MS
    )
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    all_edits = sum(1 for r in requests if r.kind == "edit" and not r.error)
    row.update({
        "wal.fsyncs_per_edit": delta.get("wal.fsyncs", 0) / max(1, all_edits),
        "wal.appends_per_edit": delta.get("wal.appends", 0) / max(1, all_edits),
        "shard.backpressure": delta.get("service.backpressure", 0),
        "shard.shed": delta.get("service.shed", 0) + delta.get("supervisor.shed", 0),
        "service.timeouts": delta.get("service.timeouts", 0),
        "client.moved": sum(1 for r in requests if r.error == "service.moved"),
        "supervisor.requests": delta.get("supervisor.requests", 0),
    })
    if traced:
        staged = [r for r in scored if r.stages and not r.error]
        stages = [_stage_ms(r) for r in staged]
        for stage in ("transport", "queue", "compute", "fsync", "unattributed"):
            values = [s[stage] for s in stages]
            key = {"queue": "shard.queue_ms", "compute": "shard.compute_ms",
                   "fsync": "wal.fsync_ms"}.get(stage, f"{stage}_ms")
            row[f"{key}.p50"] = percentile(values, 50)
            row[f"{key}.p99"] = percentile(values, 99)
        for r, s in zip(staged, stages):
            total = sum(s.values())
            latency = _latency_ms(r)
            if abs(total - latency) > 1e-6 or s["unattributed"] < -0.005:
                problems.append(f"request {r.id}: stages {s} do not add up "
                                f"to its latency {latency:.3f} ms")
                break
    return row


# -- output checks -----------------------------------------------------------


def wait_idle(server: Server, limit_s: float = 60.0) -> None:
    """Until no session has a command queued or running (a timed-out
    edit keeps running after its answer)."""
    deadline = time.monotonic() + limit_s
    while any(s.queued for s in server.control.call("service.sessions").sessions):
        if time.monotonic() > deadline:
            raise RuntimeError("sessions still busy after the last response")
        time.sleep(0.05)


def _fresh_editor() -> RiotEditor:
    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    return editor


def wal_path(wal_dir: Path, seat: Seat, k: int) -> Path:
    return wal_dir / f"shard-{seat.shard_of[k]}" / f"{seat.sessions[k]}.wal"


def acknowledged(seat: Seat) -> list[list[dict]]:
    """Each session's applied edits so far, in send order."""
    return [[params for _, params in sorted(edits)] for edits in seat.applied]


def check_wals(workload: Workload, seat: Seat, wal_dir: Path,
               applied_edits: list[list[dict]],
               problems: list[str]) -> tuple[int, list[float]]:
    """Every session's WAL holds its set-up plus exactly the applied
    edits, in order, and strict replay lands where they lead; one entry
    of ``applied_edits`` per session checked.  Returns the entries
    checked and each session's check seconds."""
    setup = [method for method, _ in workload.setup_requests()]

    def placed(rotations: int):
        session = Session(editor=_fresh_editor())
        for _, request in workload.setup_requests():
            session.dispatch(request)
        for _ in range(rotations):
            session.dispatch(t.RotateRequest(name=MOVED))
        transform = session.editor.cell.instance(MOVED).transform
        return transform.orientation, transform.translation

    # Rotation is periodic, so four references cover every count.
    rotated = [placed(n) for n in range(4 if workload.edit == "rotate" else 1)]
    entries_checked = 0
    seconds = []
    for k, applied in enumerate(applied_edits):
        name = seat.sessions[k]
        start = time.perf_counter()
        journal = wal.load_path(wal_path(wal_dir, seat, k))
        if journal.corruption is not None or journal.rejected:
            problems.append(f"{name}: WAL damaged ({journal.corruption})")
            continue
        commands = [e.command for e in journal.entries]
        tail = journal.entries[len(setup):]
        if commands[:len(setup)] != setup or any(
                e.command != workload.edit for e in tail):
            problems.append(f"{name}: WAL holds {commands[:len(setup) + 3]}...")
            continue
        if len(tail) != len(applied):
            problems.append(f"{name}: WAL holds {len(tail)} {workload.edit} "
                            f"entries, {len(applied)} were acknowledged")
            continue
        if workload.edit == "move_by" and [
                (e.kwargs["dx"], e.kwargs["dy"]) for e in tail] != [
                (p["dx"], p["dy"]) for p in applied]:
            problems.append(f"{name}: WAL move_by deltas differ from the acknowledged ones")
            continue
        editor = _fresh_editor()
        journal.replay(editor, mode="strict")
        got = editor.library.get(CELL).instance(MOVED).transform
        got = (got.orientation, got.translation.x, got.translation.y)
        if workload.edit == "move_by":
            orientation, home = rotated[0]
            want = (orientation, home.x + sum(p["dx"] for p in applied),
                    home.y + sum(p["dy"] for p in applied))
        else:
            orientation, at = rotated[len(applied) % 4]
            want = (orientation, at.x, at.y)
        if got != want:
            problems.append(f"{name}: replayed {MOVED} at {got}, expected {want}")
        entries_checked += len(journal.entries)
        seconds.append(time.perf_counter() - start)
    return entries_checked, seconds


# -- per-layer work of one session, in process -------------------------------


def replay_in_process(workload: Workload, requests: list[Request]) -> dict:
    """Run one session's share of the nominal rung through an in-process
    :class:`Session` under the layer tracer (no sockets, no WAL): the
    composition/core/api work each request costs, with counts that
    repeat exactly for a seed."""
    mine = [r for r in requests if r.session == 0]

    def once(tracer=None):
        session = Session(editor=_fresh_editor())
        for _, request in workload.setup_requests():
            session.dispatch(request)
        typed = []
        for r in mine:
            if r.kind == "read":
                typed.append(t.CheckRequest())
            elif workload.edit == "rotate":
                typed.append(t.RotateRequest(name=MOVED))
            else:
                typed.append(t.MoveByRequest(name=MOVED, **r.params))
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for request in typed:
                session.dispatch(request)
            return time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()

    untraced = once()
    tracer = LayerTracer()
    traced = once(tracer)
    layer = tracer.metrics(traced)
    layer["untraced_wall_s"] = untraced
    layer["trace.overhead_s"] = traced - untraced
    layer["inprocess.requests"] = len(mine)
    return layer


# -- the run -----------------------------------------------------------------


def measure(workload: Workload, seat: Seat, server: Server, rate: int,
            duration: float, warmup: float, rng: random.Random, traced: bool,
            stop_early: bool, problems: list[str]) -> tuple[dict, list[Request]]:
    """Offer ``rate`` for ``duration`` seconds; returns the scored row
    and the requests sent."""
    requests = schedule(workload, seat, rng, rate, duration, warmup)
    before = server.counters()
    window = drive(seat, requests, workload, problems, server, stop_early)
    after = server.counters()
    row = score_rate(rate, requests, window, before, after, traced, problems)
    wait_idle(server)
    return row, requests


def find_knee(workload: Workload, seat: Seat, server: Server, name: str,
              seed: int, seconds: float, problems: list[str],
              between) -> tuple[list[dict], float]:
    """Bisect the offered rate on a log scale inside the workload's
    bracket, :data:`PROBES` times, then walk a staircase of
    :data:`STAIRS` single tries around the bracket the bisection ends
    with: a step up after a pass, a step down after a failure.  The knee
    is the geometric mean of the staircase's rates, the rate a try
    passes about half the time: near the knee whether one try passes is
    a coin toss, and averaging over the staircase keeps one toss from
    moving the result by a whole step.  ``between()`` runs after each
    try, while the server is idle.  Returns every try's row and the
    knee."""
    low, high = workload.knee_bracket
    attempt_s = seconds / ATTEMPT_SHARES
    rows = []

    def passes(rate: int, label: str) -> bool:
        rng = random.Random(f"{name}:{seed}:{label}")
        row, _ = measure(workload, seat, server, rate, attempt_s,
                         attempt_s * PROBE_WARMUP, rng, False, True, problems)
        rows.append(row)
        between()
        return row["passed"]

    for k in range(PROBES):
        rate = round(math.sqrt(low * high))
        if any(passes(rate, f"probe{k}:{attempt}") for attempt in range(ATTEMPTS)):
            low = rate
        else:
            high = rate
    step = math.sqrt(high / low)
    rate, passed, stairs = float(low), True, []
    for k in range(STAIRS):
        rate = rate * step if passed else rate / step
        stairs.append(rate)
        passed = passes(round(rate), f"stair{k}")
    return rows, math.exp(statistics.fmean(math.log(r) for r in stairs))


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    src = Path(sys.path[0])
    workdir = out_dir / f"{name}-seed{seed}-run"
    problems: list[str] = []
    setups, cell_builds = [], []
    yardstick = Yardstick()
    server = None
    try:
        for _ in range(SETUPS_BEFORE):
            if server is not None:
                server.shutdown()
            server, seat, setup_s, builds = set_up(workload, workdir, src)
            setups.append(setup_s)
            cell_builds.extend(builds)
            yardstick.sample()

        prime(workload, seat, random.Random(f"{name}:{seed}:priming"), problems)
        wait_idle(server)
        # After a fixed amount of work: the timed phase's edit count
        # follows the knee, and every edit stays in its session's journal.
        peak_rss = server.peak_rss_mb()
        primed = workdir / "wal-primed"
        shutil.copytree(server.wal_dir, primed)
        primed_edits = acknowledged(seat)
        check_repeats = []  # [repeat][session] seconds

        def between_probes():
            yardstick.sample()
            for _ in range(CHECK_REPEATS):
                _, seconds_each = check_wals(workload, seat, primed, primed_edits,
                                             problems)
                check_repeats.append(seconds_each)

        between_probes()
        traces = []
        if traced:
            rows = []
            for index, rate in enumerate(workload.rates):
                rung_s = seconds * RUNG_SHARES[index]
                rng = random.Random(f"{name}:{seed}:rung{index}")
                row, requests = measure(workload, seat, server, rate, rung_s,
                                        rung_s * WARMUP_SHARES[index], rng,
                                        True, False, problems)
                rows.append(row)
                traces.append(requests)
        else:
            rows, knee = find_knee(workload, seat, server, name, seed, seconds,
                                   problems, between_probes)
        peak_rss_end = server.peak_rss_mb()
        # What a crash would leave: the WALs as fsynced once every
        # session is idle, before the shutdown checkpoint rewrites them
        # from memory.
        at_rest = workdir / "wal-at-rest"
        shutil.copytree(server.wal_dir, at_rest)
        server.shutdown()
        entries, _ = check_wals(workload, seat, at_rest, acknowledged(seat), problems)
        for k, session in enumerate(seat.sessions):
            if (wal.load_path(wal_path(server.wal_dir, seat, k)).entries
                    != wal.load_path(wal_path(at_rest, seat, k)).entries):
                problems.append(f"{session}: shutdown checkpoint changed the WAL")
        for _ in range(SETUPS_AFTER):
            server, _, setup_s, builds = set_up(workload, workdir / "after", src)
            setups.append(setup_s)
            cell_builds.extend(builds)
            server.shutdown()
            yardstick.sample()
    finally:
        if server is not None:
            server.kill()
    if not problems:
        shutil.rmtree(workdir)  # kept for a look when a check failed

    primed_count = SESSIONS * PRIMING_EDITS
    attempted = primed_count + sum(row["sent"] for row in rows)
    failed = sum(row["errors"] for row in rows)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": {
            "rates": rows,
            "knee_rps": None if traced else knee,
            "wal_entries_checked": entries,
            "setups": setups,
            "peak_rss_mb_end": peak_rss_end,
            "cell_builds": len(cell_builds),
            "checks_s": [sum(times) for times in check_repeats],
        },
    }
    if traced:
        nominal = rows[1]
        if not nominal["valid"]:
            problems.append(f"nominal rung invalid: the generator set the pace "
                            f"(send lag p99 {nominal['client.send_lag_ms.p99']:.2f} ms, "
                            f"CPU {nominal['client.cpu_util']:.2f})")
        layer = {"error_rate": failed / attempted}
        for key in SEAT_LATENCIES:
            layer[key] = nominal[key]
        for rung, row in zip(RUNG_NAMES, rows):
            for key, value in row.items():
                if key in PER_RUNG:
                    layer[f"{rung}.{key}"] = float(value)
        start = time.perf_counter()
        with open(out_dir / f"{name}.requests.jsonl", "w") as f:
            for rung, requests in zip(RUNG_NAMES, traces):
                for r in requests:
                    f.write(json.dumps({
                        "rung": rung, "id": r.id, "session": r.session,
                        "kind": r.kind, "due": r.due, "sent": r.sent,
                        "done": r.done, "stages": r.stages, "error": r.error,
                    }) + "\n")
        dump_s = time.perf_counter() - start
        layer.update(replay_in_process(workload, traces[1]))
        layer["trace.overhead_s"] += dump_s
        result["per_layer"] = layer
        return result

    measured = {
        "setup_s": statistics.median(setups),
        # One session's cell, each request at its fastest build.
        "assemble_s": sum(min(times) for times in zip(*cell_builds)),
        # Each session's fastest check of its primed WAL, summed.
        "checks_s": sum(min(times) for times in zip(*check_repeats)),
    }
    result["end_to_end"] = {
        **{k: yardstick.scale(v) for k, v in measured.items()},
        "peak_rss_mb": peak_rss,
        # Requests per second on a host running the yardstick in
        # REFERENCE_S seconds.
        "max_rps": knee / yardstick.scale(1.0),
    }
    result["details"]["measured_s"] = measured
    result["details"]["yardstick_s"] = yardstick.seconds()
    return result


#: The seat's latency at the nominal rung, reported by the traced run.
SEAT_LATENCIES = ("edit_p50_ms", "edit_p99_ms", "read_p50_ms", "read_p99_ms")

#: Per-rung numbers the traced run reports, each as ``<rung>.<key>``.
PER_RUNG = (
    "edit_p99_ms", "read_p99_ms", "valid",
    "client.send_lag_ms.p99", "client.cpu_util",
    "transport_ms.p50", "transport_ms.p99",
    "shard.queue_ms.p50", "shard.queue_ms.p99",
    "shard.compute_ms.p50", "shard.compute_ms.p99",
    "wal.fsync_ms.p50", "wal.fsync_ms.p99",
    "unattributed_ms.p50", "unattributed_ms.p99",
    "wal.fsyncs_per_edit", "wal.appends_per_edit",
    "shard.cpu_util", "supervisor.cpu_s",
    "shard.backpressure", "shard.shed", "service.timeouts",
    "client.moved", "supervisor.requests",
)
