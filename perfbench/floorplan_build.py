"""Workload ``floorplan_build``: whole chip builds, in process.

Every run builds the same three ``medium`` tier chips, whose output
fingerprints are pinned below; the run seed sets the order each round
builds them in.  Set-up generates the chips.  Each build then assembles
one through the typed command surface, runs the repo's floorplan
invariant checks, and reads the finished chip back with one ``check``
(netcheck) per assembled cell.  No sockets, no fsync: the composition
model (instance connectors, bounding boxes, geometry) dominates here.

Whole rounds over the chips repeat while ``--seconds`` allows, and
each timed piece of work keeps its fastest round: the stalls of a
shared host only ever add time, so the fastest repeat is the program's
own figure, as ``timeit`` keeps the fastest repeat.  A slowdown of the
host that lasts the whole run is taken out by the yardstick
(``reference.py``), sampled before every build: every reported time is
scaled to the yardstick's pinned speed.
"""

from __future__ import annotations

import contextlib
import random
import resource
import statistics
import time

from repro.api import types as t
from repro.api.session import Session
from repro.floorplan.assemble import assemble_floorplan
from repro.floorplan.checks import run_floorplan_checks
from repro.floorplan.generator import gen_floorplan_case
from repro.proptest.prng import Rng

from layers import LAYERS, LayerTracer
from reference import Yardstick
from stats import percentile

#: The repo's ``medium`` tier (about 300 placed instances, 6 blocks);
#: a ``large`` chip (about 1100 instances) costs about 10 s, too few
#: repeats per run to keep the fastest of.
TIER = "medium"
#: Generator seeds of the chips every run builds: three chips of the
#: tier taking 0.7 s to 1.9 s a build, depending on the host's speed,
#: so a run of 30 s repeats the round 6 to 12 times.  They are fixed
#: so that every run is compared against a pin and seeds differ only in
#: build order, not in how much work a run measures.
CHIP_SEEDS = (0, 5, 9)
#: Chip generations timed before each round; ``setup_s`` is their
#: median, scaled to the yardstick's speed.
SETUPS_PER_ROUND = 5

#: Output fingerprints of :data:`CHIP_SEEDS`, pinned when this
#: benchmark was written: a build that differs from its pin is wrong,
#: however fast.
PINNED_KEYS = ("instances", "commands", "area", "wirelength", "route_channels")
PINNED: dict[int, tuple] = {
    0: (303, 976, 28699687500, 180500, 25),
    5: (314, 1084, 28964062500, 308000, 36),
    9: (310, 1194, 31561500000, 366500, 32),
}


class TimedSession(Session):
    """A session that times each command it dispatches, so the seat's
    per-command latency comes from the very calls the assembly makes."""

    def __init__(self) -> None:
        super().__init__()
        self.latencies: list[float] = []
        #: Start and end of every dispatch, in order.
        self.marks: list[float] = []
        self.failures = 0

    def dispatch(self, request):
        start = time.perf_counter()
        self.marks.append(start)
        try:
            return super().dispatch(request)
        except Exception:
            self.failures += 1
            raise
        finally:
            end = time.perf_counter()
            self.marks.append(end)
            self.latencies.append(end - start)


def chip_cases() -> list[dict]:
    """The chips every run builds, in :data:`CHIP_SEEDS` order."""
    return [gen_floorplan_case(Rng(seed), TIER) for seed in CHIP_SEEDS]


def build(case: dict, tracer=None) -> dict:
    """Assemble, check and read back one chip; returns its timings and
    output fingerprint."""
    def span(name):
        return tracer.span(name, "floorplan") if tracer else contextlib.nullcontext()

    session = TimedSession()
    start = time.perf_counter()
    with span("floorplan.assemble"):
        report = assemble_floorplan(case, session=session)
    assembled = time.perf_counter()
    # The assembly cut at each command's start and end: the same pieces
    # of work, in the same order, on every round.
    marks = [start, *session.marks, assembled]
    pieces = [b - a for a, b in zip(marks, marks[1:])]
    # The build's own output, before checks and reads add to the journal.
    stats = report.to_dict()
    checks_start = time.perf_counter()
    with span("floorplan.checks"):
        try:
            checked = run_floorplan_checks(report)
        except AssertionError as exc:
            checked = {"failed": str(exc)}
    checks_done = time.perf_counter()
    edits = session.latencies[:]
    reads = []
    netcheck = []
    for name in [*report.blocks, report.top]:
        session.dispatch(t.EditRequest(name=name))
        before = len(session.latencies)
        result = session.dispatch(t.CheckRequest())
        reads.append(session.latencies[before])
        netcheck.append([result.made, result.near_misses,
                         result.overlapping, result.unconnected])
    end = time.perf_counter()
    return {
        "assemble_s": assembled - start,
        "assemble_pieces": pieces,
        "checks_s": checks_done - checks_start,
        "wall_s": end - start,
        "edits": edits,
        "reads": reads,
        "commands": len(session.latencies),
        "failures": session.failures,
        "fingerprint": {
            "instances": stats["instances"],
            "commands": stats["commands"],
            "area": stats["area"],
            "wirelength": stats["wirelength"],
            "route_channels": stats["route_channels"],
            "checked": checked,
            "netcheck": netcheck,
        },
    }


def fastest(samples) -> float:
    """Sum over aligned pieces of work of each piece's fastest round:
    ``samples[r][k]`` is piece ``k``'s seconds in round ``r``."""
    return sum(min(piece) for piece in zip(*samples))


def run(name: str, seed: int, seconds: float, traced: bool, out_dir) -> dict:
    setups: list[float] = []

    def set_up() -> list[dict]:
        for _ in range(SETUPS_PER_ROUND):
            start = time.perf_counter()
            cases = chip_cases()
            setups.append(time.perf_counter() - start)
        return cases

    order = list(range(len(CHIP_SEEDS)))
    rng = random.Random(seed)
    yardstick = Yardstick()

    def build_round(tracer=None) -> list[dict]:
        """Every chip once, in this round's seeded order; returned in
        :data:`CHIP_SEEDS` order."""
        cases = set_up()
        rng.shuffle(order)
        builds = {}
        for i in order:
            if tracer is None:
                yardstick.sample()
            builds[i] = build(cases[i], tracer)
        return [builds[i] for i in range(len(CHIP_SEEDS))]

    problems: list[str] = []
    rounds: list[list[dict]] = []  # rounds[r][chip]
    if traced:
        rounds.append(build_round())
        tracer = LayerTracer()
        tracer.install()
        try:
            start = time.perf_counter()
            rounds.append(build_round(tracer))
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.dump(out_dir / f"{name}.spans.tsv")
        layer = tracer.metrics(traced_wall)
        layer["untraced_wall_s"] = sum(b["wall_s"] for b in rounds[0])
        layer["trace.overhead_s"] = traced_wall - layer["untraced_wall_s"]
        total = sum(layer[f"{layer_name}.self_s"] for layer_name in LAYERS)
        if abs(total + layer["remainder_s"] - traced_wall) > 1e-6:
            problems.append("per-layer self times do not add up to the traced wall")
    else:
        # Whole rounds over the same chips, so a faster program measures
        # the same inputs, just more often.
        start = time.perf_counter()
        while True:
            rounds.append(build_round())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break

    fingerprints = [b["fingerprint"] for b in rounds[0]]
    for builds in rounds[1:]:
        if [b["fingerprint"] for b in builds] != fingerprints:
            problems.append("a chip built differently in two rounds of one run")
    for chip, fingerprint in zip(CHIP_SEEDS, fingerprints):
        if "failed" in fingerprint["checked"]:
            problems.append(f"chip {chip}: {fingerprint['checked']['failed']}")
        got = tuple(fingerprint[k] for k in PINNED_KEYS)
        if got != PINNED[chip]:
            problems.append(f"chip {chip}: {PINNED_KEYS} = {got}, pinned {PINNED[chip]}")

    builds = [b for builds in rounds for b in builds]
    attempted = sum(b["commands"] for b in builds)
    failed = sum(b["failures"] for b in builds)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": {"tier": TIER, "chip_seeds": list(CHIP_SEEDS),
                    "rounds": len(rounds), "fingerprints": fingerprints},
    }
    edits = [s for b in rounds[0] for s in b["edits"]]
    reads = [s for b in rounds[0] for s in b["reads"]]
    latencies = {
        "edit_p50_ms": percentile(edits, 50) * 1000,
        "edit_p99_ms": percentile(edits, 99) * 1000,
        "read_p50_ms": percentile(reads, 50) * 1000,
        "read_p99_ms": percentile(reads, 99) * 1000,
    }
    if traced:
        layer["error_rate"] = failed / attempted
        layer.update(latencies)  # from the untraced round
        result["per_layer"] = layer
        return result

    def fastest_per_chip(pieces) -> float:
        """``pieces(build)`` of every chip, each piece at its fastest
        round, summed."""
        return sum(fastest([pieces(chips[i]) for chips in rounds])
                   for i in range(len(CHIP_SEEDS)))

    measured = {
        "setup_s": statistics.median(setups),
        "assemble_s": fastest_per_chip(lambda b: b["assemble_pieces"]),
        "checks_s": fastest_per_chip(lambda b: [b["checks_s"]]),
        # One round's reads, one after another, each at its fastest.
        "reads_s": fastest_per_chip(lambda b: b["reads"]),
    }
    scaled = {k: yardstick.scale(v) for k, v in measured.items()}
    result["end_to_end"] = {
        "setup_s": scaled["setup_s"],
        "assemble_s": scaled["assemble_s"],
        "checks_s": scaled["checks_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_rps": len(reads) / scaled["reads_s"],
    }
    result["details"]["measured_s"] = measured
    result["details"]["yardstick_s"] = yardstick.seconds()
    result["details"]["seat_latency_ms"] = latencies
    result["details"]["samples"] = {"edits": len(edits), "reads": len(reads)}
    return result
