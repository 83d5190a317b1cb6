"""Every ``service.stats`` field, pinned on a scripted workload.

The workload is the same on a single-process :class:`ServiceThread`
and on a 2-shard :class:`SupervisorThread`, and every count it
produces is known in advance: one command error and one library
conflict, a publish, two cached verifies, and one pipelined burst that
meets exactly one timeout, one backpressure refusal and one shed.

The burst relies on the ``slow-worker`` chaos delay (D = 400 ms per
session command) against a 1 s deadline, ``queue_limit=3`` and
``shed_at=4``.  Six lines go out at once on one socket:

====  =======  =====================================  ==================
line  session  admission                              outcome
====  =======  =====================================  ==================
1     a        in flight 1, queue 1                   ok at D
2     a        in flight 2, queue 2                   ok at 2D
3     a        in flight 3, queue 3                   timeout (done 3D)
4     a        queue full                             backpressure
5     b        in flight 4                            ok at D
6     b        4 in flight >= shed_at                 overloaded (shed)
====  =======  =====================================  ==================
"""

from __future__ import annotations

import os
import socket
import time

import pytest

from repro.api import types as t
from repro.api.wire import encode_request, parse_response
from repro.errors import ReproError
from repro.service.chaos import ChaosPolicy
from repro.service.client import NO_RETRY, ServiceClient
from repro.service.server import ServiceThread
from repro.service.supervisor import HashRing, SupervisorThread

SLOW_MS = 400
LIMITS = dict(queue_limit=3, shed_at=4, timeout=1.0)

#: Pipeline artifact-cache traffic of two ``verify top`` runs over one
#: cache directory: the first run misses every task, the second hits.
CACHE_MISSES = 5
CACHE_HITS = 5

BURST = [
    ("a", None),
    ("a", None),
    ("a", "service.timeout"),
    ("a", "service.backpressure"),
    ("b", None),
    ("b", "service.overloaded"),
]


def burst(address, sessions: dict, generation=None) -> None:
    """Send the six burst lines at once and check each outcome."""
    lines = [
        encode_request(
            "cells",
            t.CellsRequest(),
            id=i,
            session=sessions[who],
            generation=generation,
        )
        for i, (who, _) in enumerate(BURST)
    ]
    with socket.create_connection(address, timeout=30) as sock:
        wire = sock.makefile("rwb")
        wire.write("".join(line + "\n" for line in lines).encode("utf-8"))
        wire.flush()
        answers = {}
        for _ in lines:
            response = parse_response(wire.readline())
            answers[response.id] = (
                None if response.ok else response.error.code
            )
    assert answers == {i: code for i, (_, code) in enumerate(BURST)}
    # The timed-out command still runs to completion (at 3D); let it
    # finish so every queue reads empty.
    time.sleep(3 * SLOW_MS / 1000)


def session_workload(host, port, name, cache_dir) -> None:
    """One error, one publish (with its invalidation cascade), one
    conflict, two cached verifies."""
    with ServiceClient(host, port, session=name, retry=NO_RETRY) as c:
        c.call("new_cell", name="top")
        c.call("create", at=(0, 20000), cell_name="nand", name="g0")
        with pytest.raises(ReproError) as excinfo:
            c.call("rotate", name="ghost")
        assert excinfo.value.code != "service.timeout"
        c.call("library.publish", name="nand")
        with pytest.raises(ReproError) as excinfo:
            c.call("library.publish", name="nand", expected_version=0)
        assert excinfo.value.code == "library.conflict"
        for _ in range(2):
            c.call("verify", cells=("top",), cache=str(cache_dir))


def open_session(host, port, name, *, error=False) -> None:
    with ServiceClient(host, port, session=name, retry=NO_RETRY) as c:
        c.call("new_cell", name="top")
        if error:
            with pytest.raises(ReproError):
                c.call("rotate", name="ghost")


def assert_workload_counters(stats) -> None:
    assert stats.timeouts == 1
    assert stats.backpressure == 1
    assert stats.shed == 1
    assert stats.queued == 0
    assert stats.shard_failures == 0
    assert stats.library_publishes == 1
    assert stats.library_conflicts == 1
    assert stats.library_cascades == 1  # the publish's own cascade
    assert stats.cache_misses == CACHE_MISSES
    assert stats.cache_hits == CACHE_HITS
    assert stats.cache_evictions == 0


def test_single_process_stats_fields(tmp_path):
    with ServiceThread(
        chaos=ChaosPolicy(slow_worker_ms=SLOW_MS),
        library_dir=tmp_path / "lib",
        **LIMITS,
    ) as srv:
        host, port = srv.address
        # connection 1: hello + 7 session commands (2 errors)
        session_workload(host, port, "pin-a", tmp_path / "cache")
        # connection 2: hello + new_cell
        open_session(host, port, "pin-b")
        # connection 3: the six burst lines
        burst(srv.address, {"a": "pin-a", "b": "pin-b"})
        # connection 4: hello + this stats call
        with ServiceClient(host, port, retry=NO_RETRY) as control:
            stats = control.call("service.stats")
    assert stats.connections == 4
    assert stats.requests == 8 + 2 + 6 + 2
    assert stats.errors == 2
    assert stats.sessions == 2
    assert stats.direct_requests == 0
    assert stats.pid == os.getpid()
    assert stats.shards == ()
    assert_workload_counters(stats)


def test_sharded_stats_fields(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", f"slow-worker:{SLOW_MS}")
    ring = HashRing(2)
    # a and b share shard X (the burst sheds on one shard's in-flight
    # count); c lives on the other shard.
    names = [f"pin-{i}" for i in range(64)]
    a = names[0]
    b = next(n for n in names[1:] if ring.shard_for(n) == ring.shard_for(a))
    c = next(n for n in names if ring.shard_for(n) != ring.shard_for(a))
    x, y = ring.shard_for(a), ring.shard_for(c)
    with SupervisorThread(
        shards=2, library_dir=tmp_path / "lib", **LIMITS
    ) as sup:
        host, port = sup.address
        with ServiceClient(host, port, retry=NO_RETRY) as control:
            # supervisor requests: hello(1)
            session_workload(host, port, a, tmp_path / "cache")  # +2
            open_session(host, port, b)  # +2
            open_session(host, port, c, error=True)  # +2
            route = control.call("service.route", session=a)  # +1
            burst(
                (route.host, route.port),
                {"a": a, "b": b},
                generation=route.generation,
            )
            stats = control.call("service.stats")  # +1
    assert stats.connections == 4
    assert stats.requests == 9
    assert stats.errors == 3
    assert stats.sessions == 3
    # x: 7 (a) + 1 (b) + 6 (burst); y: 2 (c) — all on the data plane
    assert stats.direct_requests == 16
    assert stats.pid == os.getpid()
    assert_workload_counters(stats)
    by_index = {s.index: s for s in stats.shards}
    assert sorted(by_index) == [0, 1]
    assert (by_index[x].sessions, by_index[y].sessions) == (2, 1)
    for shard in stats.shards:
        assert shard.alive
        assert shard.queued == 0
        assert shard.restarts == 0
        assert not shard.circuit_open
        assert isinstance(shard.pid, int) and shard.pid != os.getpid()
    assert by_index[x].pid != by_index[y].pid
