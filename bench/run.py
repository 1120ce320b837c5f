"""Cadence benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 bench/run.py --workload steady60 --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed`` with ``gaitcadence.synth`` (see ``fixtures.py``) under
``.bench_run/``; generation is not timed.

``--trace 0`` measures the end-to-end metrics: warm, untraced
``run_pipeline`` calls in a closed loop for ``--seconds`` of call time, and
set-up time and peak RSS from fresh child processes. ``--trace 1`` measures
the per-layer metrics from a traced rebuild of the pipeline, alternating
with untraced calls, then times the stage functions on one block of frames.

Every metric is printed on its own line with its unit, followed by the
output hashes and the environment. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` and ``failed`` count bouts across all calls, so
``failed / attempted`` is the failure fraction. The metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "unknown"  # a source export without .git has no commit to read
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaitcadence" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'gaitcadence'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, str(SRC))
    # Importing the CLI here writes the bytecode cache before any child
    # process times its own import.
    import gaitcadence.cli  # noqa: F401
    import fixtures
    import measure

    if args.workload not in fixtures.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(fixtures.WORKLOADS)}")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    fixture = fixtures.build(args.workload, workdir / "input", args.seed)
    if args.trace:
        metrics, tally, tracer = measure.traced(fixture, args.seconds, workdir)
        tracer.dump(workdir / "spans.json")
    else:
        metrics, tally = measure.untraced(fixture, args.seconds, workdir, SRC)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"metric fail_frac {tally.failed / tally.attempted!r} ratio")
    print(f"metric cadence_rmse_hz {tally.rmse!r} Hz")
    print(f"calls {metrics['calls']}")
    cadence_sha, summary_sha = sorted(tally.hashes)[0]
    print(f"sha256 cadence.csv {cadence_sha}")
    print(f"sha256 summary.csv {summary_sha}")
    if len(tally.hashes) > 1:
        print(f"outputs differ between calls: {len(tally.hashes)} distinct")
    for msg in tally.messages:
        print(f"gate failure: {msg}")
    env = environment(args.seed)
    for key, value in env.items():
        print(f"env {key} {value}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, trace=args.trace,
             sha256={"cadence.csv": cadence_sha, "summary.csv": summary_sha},
             environment=env), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
