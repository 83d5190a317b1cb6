"""Riot's designer-seat benchmark: one command, three workloads (the two in
``BENCHMARK.json`` and ``service_mixed``, run by hand).

Run from the root of a checkout::

    python3 perfbench/run.py --workload floorplan_build --seed 0 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
splits them across the repo's layers and reports every per-layer
metric.  Each run checks its own outputs; a wrong output makes the run
fail (``"correct": false``, exit code 1) whatever its speed.

Everything is built from source in this checkout (``src/``) and every
file a run writes stays under ``.perfbench_out/`` here.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric by
name and unit, the host fingerprint and what the checks covered.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: workload name -> module under this directory that runs it.
WORKLOADS = {
    "floorplan_build": "floorplan_build",
    "service_edit": "service_load",
    "service_mixed": "service_load",
}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix in
    ``/proc/mounts``)."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, fields[2]
    return kind


def host_fingerprint(load_before: float) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "wal_filesystem": filesystem_type(OUT),
        "commit": _commit(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "flush_policy": "one fsync per WAL append (as shipped)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program sources at {SRC} (or no BENCHMARK.json "
              f"at {ROOT}); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # A terminated run unwinds like an error, so every server it started
    # is stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()[0]
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), OUT)
    host = host_fingerprint(load_before)

    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    problems = list(dict.fromkeys(result["problems"]))
    metrics = {}
    not_exercised = []
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values:
            if kind == "end_to_end":
                problems.append(f"workload produced no {name}")
                continue
            # A layer this workload never reaches did no work in it.
            not_exercised.append(name)
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    unknown = sorted(set(values) - {e["name"] for e in spec[kind]})
    if unknown:
        problems.append(f"metrics missing from BENCHMARK.json: {unknown}")

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if not_exercised:
        print(f"not exercised by {args.workload} (reported as 0): "
              + ", ".join(not_exercised))
    print("host " + json.dumps(host, sort_keys=True))
    print("details " + json.dumps(result["details"], sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "details": result["details"],
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
