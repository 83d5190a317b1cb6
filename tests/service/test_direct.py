"""The direct-to-shard data plane, end to end: the negotiated routing
handshake, direct traffic bypassing the supervisor, the supervisor's
redirect of session commands sent to its own socket, lease-generation
staleness after a shard restart, riding out a kill mid-burst, and the
chaos crash-point invariant on the direct path — all against real
shard subprocesses via :class:`SupervisorThread`."""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.api import types as t
from repro.api.types import PROTOCOL_VERSION
from repro.api.wire import encode_request, parse_response
from repro.core import wal
from repro.errors import ReproError
from repro.service.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.service.supervisor import HashRing, SupervisorThread

#: Retry schedule used by tests that ride out a shard restart.
PATIENT = RetryPolicy(
    attempts=12, base_delay=0.05, max_delay=0.5, connect_window=15.0, seed=5
)


def client_for(sup, session=None, **kwargs) -> ServiceClient:
    host, port = sup.address
    kwargs.setdefault("retry", PATIENT)
    return ServiceClient(host, port, session=session, **kwargs)


def shard_pid_for(client, index: int) -> int:
    stats = client.call("service.stats")
    (pid,) = [s.pid for s in stats.shards if s.index == index]
    assert pid is not None
    return pid


def restarts_of(client, index: int) -> int:
    stats = client.call("service.stats")
    return next(s.restarts for s in stats.shards if s.index == index)


def wait_for_restart(
    client, index: int, *, past: int = 0, deadline: float = 20.0
) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        stats = client.call("service.stats")
        shard = next(s for s in stats.shards if s.index == index)
        if shard.alive and shard.restarts > past:
            return
        time.sleep(0.05)
    raise TimeoutError(f"shard {index} did not restart")


def wait_for_death(client, index: int, deadline: float = 10.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        stats = client.call("service.stats")
        if not next(s for s in stats.shards if s.index == index).alive:
            return
        time.sleep(0.01)
    raise TimeoutError(f"shard {index} never went down")


def raw_cells(address, session: str):
    """One ``cells`` line sent the old way — to the supervisor's own
    socket — and the response it gets."""
    with socket.create_connection(address, timeout=30) as sock:
        wire = sock.makefile("rwb")
        line = encode_request("cells", t.CellsRequest(), id=7, session=session)
        wire.write(line.encode("utf-8") + b"\n")
        wire.flush()
        response = parse_response(wire.readline())
    assert response.id == 7 and not response.ok
    return response.error


@pytest.fixture(scope="module")
def sup(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("direct-wals")
    with SupervisorThread(shards=2, journal_dir=journal_dir) as srv:
        yield srv


class TestHandshake:
    def test_hello_advertises_direct_routing(self, sup):
        with client_for(sup) as control:
            hello = control.call("service.hello", client="test/1")
        assert hello.version == PROTOCOL_VERSION
        assert hello.server == "supervisor"
        assert "direct_routing" in hello.capabilities
        assert "telemetry" in hello.capabilities
        assert control.capabilities == hello.capabilities

    def test_route_matches_the_ring_and_leases_generation_zero(self, sup):
        ring = HashRing(2)
        with client_for(sup) as control:
            for name in ("dr-a", "dr-b", "dr-c"):
                route = control.call("service.route", session=name)
                assert route.session == name
                assert route.direct
                assert route.shard == ring.shard_for(name)
                assert route.host and route.port
                assert route.generation == 0
                assert route.lease_ms > 0

    def test_route_performs_admission(self, sup):
        with client_for(sup, retry=NO_RETRY) as control:
            with pytest.raises(ReproError) as excinfo:
                control.call("service.route", session=".dotfile")
        assert excinfo.value.code == "service.bad_session"


class TestDirectPath:
    def test_session_traffic_bypasses_the_supervisor(self, sup):
        with client_for(sup, session="dr-bypass") as client:
            client.call("new_cell", name="top")
            client.call("create", at=(0, 20000), cell_name="nand", name="g0")
            for _ in range(3):
                client.call("rotate", name="g0")
            stages = dict(client.last_stages)
        assert client.direct_calls == 5
        assert client.route_refreshes == 1  # one lease covered the burst
        assert "direct" in stages and "relay" not in stages
        with client_for(sup) as control:
            stats = control.call("service.stats")
        assert stats.direct_requests >= 5

    def test_direct_request_to_the_wrong_shard_is_refused(self, sup):
        # Dial shard A's data socket, stamp a lease, but name a session
        # the ring assigns to shard B: the shard itself refuses.
        ring = HashRing(2)
        mine, other = "dr-wrong-a", "dr-wrong-b"
        i = 0
        while ring.shard_for(other) == ring.shard_for(mine):
            i += 1
            other = f"dr-wrong-b{i}"
        with client_for(sup, session=mine) as client:
            client.call("new_cell", name="top")  # direct wire is live
            route = client._route
            assert route is not None
            with ServiceClient(
                route.host,
                route.port,
                session=other,
                retry=NO_RETRY,
            ) as intruder:
                # Forge a direct envelope by stamping the generation.
                from repro.service.client import method_types

                request_cls, _ = method_types("new_cell")
                with pytest.raises(ReproError) as excinfo:
                    intruder._round_trip(
                        "new_cell",
                        request_cls(name="x"),
                        file=intruder._file,
                        generation=route.generation,
                    )
        assert excinfo.value.code == "service.moved"
        assert excinfo.value.detail.shard == ring.shard_for(other)


@pytest.fixture(scope="class")
def long_lease(tmp_path_factory):
    # A lease long enough that it is still cached — and stale — after
    # the kill/restart cycle these tests stage.
    journal_dir = tmp_path_factory.mktemp("stale-wals")
    with SupervisorThread(
        shards=2, journal_dir=journal_dir, route_lease=60.0
    ) as srv:
        yield srv


class TestStaleLease:
    def test_stale_generation_adopts_the_new_address_in_place(
        self, long_lease
    ):
        ring = HashRing(2)
        name = "dr-stale"
        with client_for(long_lease, session=name) as client:
            client.call("new_cell", name="top")
            client.call("create", at=(0, 20000), cell_name="nand", name="g0")
            assert client.route_refreshes == 1
            index = ring.shard_for(name)
            with client_for(long_lease) as control:
                past = restarts_of(control, index)
                os.kill(shard_pid_for(control, index), signal.SIGKILL)
                wait_for_restart(control, index, past=past)
            # Simulate an idle client whose direct socket was dropped
            # while its (now stale) lease survived: the reconnect lands
            # on the restarted shard's pinned port, which answers
            # service.moved carrying the new generation — adopted in
            # place, no supervisor re-route.
            client._close_direct()
            assert client.call("rotate", name="g0").name == "g0"
            assert client.retries >= 1
            assert client.route_refreshes == 1
            assert client._route.generation >= 1
        # Replay preserved the pre-crash state on the direct path too.
        with client_for(long_lease, session=name) as fresh:
            assert "top" in fresh.call("cells").names

    def test_stale_lease_surfaces_moved_for_side_effect_commands(
        self, long_lease, tmp_path
    ):
        ring = HashRing(2)
        name = "dr-stale-io"
        with client_for(long_lease, session=name) as client:
            client.call("new_cell", name="top")
            index = ring.shard_for(name)
            with client_for(long_lease) as control:
                past = restarts_of(control, index)
                os.kill(shard_pid_for(control, index), signal.SIGKILL)
                wait_for_restart(control, index, past=past)
            client._close_direct()
            # writecif is not replayable: the stale-lease refusal must
            # surface instead of being silently retried.
            with pytest.raises(ReproError) as excinfo:
                client.call(
                    "writecif", cell="top", path=str(tmp_path / "x.cif")
                )
            assert excinfo.value.code == "service.moved"
            # ...but the adopted route serves the next command.
            assert "top" in client.call("cells").names


class TestRedirect:
    """The supervisor forwards no session command: one sent to its
    socket is admitted, then pointed at the owning shard."""

    def test_session_command_gets_moved_with_the_shard_address(self, sup):
        name = "rd-moved"
        error = raw_cells(sup.address, name)
        assert error.code == "service.moved"
        with client_for(sup) as control:
            route = control.call("service.route", session=name)
        detail = error.detail
        assert (detail.shard, detail.host, detail.port, detail.generation) == (
            route.shard,
            route.host,
            route.port,
            route.generation,
        )
        # Nothing executed: the shard never opened the session.
        with client_for(sup) as control:
            listed = control.call("service.sessions").sessions
        assert name not in {s.name for s in listed}

    def test_admission_errors_come_first(self, sup):
        assert raw_cells(sup.address, ".dotfile").code == "service.bad_session"
        with SupervisorThread(shards=2, max_sessions=1) as srv:
            assert raw_cells(srv.address, "one").code == "service.moved"
            refused = raw_cells(srv.address, "two")
            assert refused.code == "service.session_limit"

    def test_down_shard_answers_shard_failed_on_both_paths(self):
        ring = HashRing(2)
        name = "rd-down"
        index = ring.shard_for(name)
        # A slow restart keeps the shard down long enough to look.
        with SupervisorThread(
            shards=2, governor_kwargs={"base_delay": 3.0, "max_delay": 3.0}
        ) as srv:
            with client_for(srv, retry=NO_RETRY) as control:
                assert control.call("service.route", session=name).direct
                os.kill(shard_pid_for(control, index), signal.SIGKILL)
                wait_for_death(control, index)
                redirected = raw_cells(srv.address, name)
                with pytest.raises(ReproError) as excinfo:
                    control.call("service.route", session=name)
        for error in (redirected, excinfo.value):
            assert error.code == "service.shard_failed"
            assert error.retry_after_ms >= 3000
            assert error.detail.shard == index
            assert error.detail.generation == 1

    def test_open_circuit_answers_overloaded(self):
        name = "rd-loop"
        index = HashRing(2).shard_for(name)
        with SupervisorThread(
            shards=2, governor_kwargs={"max_failures": 1, "cooldown": 30.0}
        ) as srv:
            with client_for(srv, retry=NO_RETRY) as control:
                os.kill(shard_pid_for(control, index), signal.SIGKILL)
                wait_for_death(control, index)
                redirected = raw_cells(srv.address, name)
                with pytest.raises(ReproError) as excinfo:
                    control.call("service.route", session=name)
        for error in (redirected, excinfo.value):
            assert error.code == "service.overloaded"
            assert error.retry_after_ms > 0


class TestBreakerProgress:
    def test_direct_traffic_counts_as_progress(self):
        """A shard that served only direct traffic and is then killed
        made progress: even a one-strike breaker restarts it, and the
        session's next command succeeds."""
        with SupervisorThread(
            shards=1, governor_kwargs={"max_failures": 1, "cooldown": 30.0}
        ) as srv:
            with client_for(srv, session="bp-busy") as client:
                for _ in range(3):
                    client.call("cells")
                assert client.direct_calls == 3
                with client_for(srv) as control:
                    # service.stats pings the shard, so the supervisor's
                    # snapshot now counts the direct commands.
                    os.kill(shard_pid_for(control, 0), signal.SIGKILL)
                    wait_for_death(control, 0)
                    governor = srv.supervisor.shards[0].governor
                    assert governor.failures == 0
                    assert not governor.circuit_open
                    client.call("cells")
                    stats = control.call("service.stats")
        assert stats.shards[0].restarts == 1
        assert not stats.shards[0].circuit_open


class TestFailover:
    def test_kill_mid_burst_rides_out_the_restart_direct(self, tmp_path):
        name = "dr-failover"
        with SupervisorThread(
            shards=1, journal_dir=tmp_path, route_lease=30.0
        ) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
                client.call(
                    "create", at=(0, 20000), cell_name="nand", name="g0"
                )
                with client_for(srv) as control:
                    os.kill(shard_pid_for(control, 0), signal.SIGKILL)
                # The direct socket is dead: the client re-routes —
                # ``service.shard_failed`` paces it while the shard
                # restarts — and lands on the new life's data socket.
                moved = client.call("move", name="g0", to=(400, 20000))
                assert moved.x == 400
                assert client.retries >= 1
                assert client.route_refreshes >= 2
                assert client._route.generation >= 1
                for _ in range(3):
                    client.call("rotate", name="g0")
                # Every acknowledged command travelled the data plane.
                assert client.direct_calls == 6
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == [
            "new_cell",
            "create",
            "move",
            "rotate",
            "rotate",
            "rotate",
        ]


class TestChaosCrashPointDirect:
    """The WAL invariant holds on the data plane: a shard SIGKILLed
    right after acknowledging its N-th command — acknowledged on its
    own data socket, no supervisor in the loop — must replay to
    exactly the acknowledged prefix."""

    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_wal_holds_exactly_the_acknowledged_prefix(
        self, tmp_path, monkeypatch, kill_after
    ):
        monkeypatch.setenv("REPRO_CHAOS", f"kill-shard-after:{kill_after}")
        name = "dr-crashy"
        commands = [("new_cell", {"name": "top"})] + [
            (
                "create",
                {"at": (i * 8000, 20000), "cell_name": "nand", "name": f"g{i}"},
            )
            for i in range(4)
        ]
        acked = []
        with SupervisorThread(shards=1, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name, retry=NO_RETRY) as client:
                failure = None
                for method, params in commands:
                    try:
                        client.call(method, **params)
                        acked.append(method)
                    except (ReproError, ConnectionError, OSError) as exc:
                        failure = exc
                        break
                assert failure is not None
                assert len(acked) == kill_after
                assert client.direct_calls == kill_after  # all direct
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == acked

    def test_retrying_client_completes_interrupted_direct_workload(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "kill-shard-after:3")
        name = "dr-storm"
        with SupervisorThread(shards=1, journal_dir=tmp_path) as srv:
            with client_for(srv, session=name) as client:
                client.call("new_cell", name="top")
                for i in range(6):
                    client.call(
                        "create",
                        at=(i * 8000, 20000),
                        cell_name="nand",
                        name=f"g{i}",
                    )
                assert client.retries >= 1  # the storm really hit
                assert client.direct_calls >= 1
            with client_for(srv) as control:
                stats = control.call("service.stats")
                assert stats.shards[0].restarts >= 1
                control.call("service.shutdown")
        # every acknowledged command — and only those — replays clean
        journal = wal.load_path(tmp_path / "shard-0" / f"{name}.wal")
        assert journal.corruption is None
        assert [e.command for e in journal.entries] == ["new_cell"] + [
            "create"
        ] * 6
