"""Correctness gate: the program's outputs against the synthetic truth.

Tolerances are those of the acceptance gate in ``tests/test_acceptance.py``.
Every bout must report ``ok``. Then ``bias`` workloads keep the mean error
over the inner 80 % of each bout within 0.02 steps/s, and ``band`` workloads
keep each bout's mean cadence in [1.6, 2.4] steps/s.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BIAS_TOL = 0.02
BAND = (1.6, 2.4)
INNER = 0.8


@dataclass
class Verdict:
    """Per-call outcome: bouts checked, bouts failed and the pooled error."""

    bouts: int
    failed: int
    sq_err: float  # sum of squared cadence errors over inner frames
    frames: int
    messages: list = field(default_factory=list)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_outputs(outdir):
    """Frame times, cadence and per-bout report entries of one run."""
    outdir = Path(outdir)
    data = np.loadtxt(outdir / "cadence.csv", delimiter=",", skiprows=1,
                      usecols=(0, 2), ndmin=2)
    report = json.loads((outdir / "report.json").read_text())
    return data[:, 0], data[:, 1], report["bouts"]


def check(fixture, times, cadence, report_bouts, fs: float = 100.0) -> Verdict:
    """Apply the workload's rule to each bout; a missing bout counts as failed."""
    verdict = Verdict(bouts=len(fixture.bouts), failed=0, sq_err=0.0, frames=0)
    statuses = [b["status"] for b in report_bouts]
    statuses += [None] * (len(fixture.bouts) - len(statuses))
    for (start, end, _), status in zip(fixture.bouts, statuses):
        edge = (1.0 - INNER) / 2.0 * (end - start)
        inner = (times >= start + edge) & (times <= end - edge)
        truth = 2.0 * fixture.truth_if[np.rint(times[inner] * fs).astype(int)]
        err = cadence[inner] - truth
        in_bout = cadence[(times >= start) & (times < end)]
        verdict.sq_err += float(np.sum(err**2))
        verdict.frames += int(err.size)
        if status != "ok" or err.size == 0:
            problem = f"status {status!r}, {err.size} frames"
        elif fixture.rule == "bias" and abs(err.mean()) > BIAS_TOL:
            problem = f"bias {err.mean():+.4f} exceeds {BIAS_TOL}"
        elif fixture.rule == "band" and not BAND[0] <= in_bout.mean() <= BAND[1]:
            problem = f"mean {in_bout.mean():.4f} outside {BAND}"
        else:
            continue
        verdict.failed += 1
        verdict.messages.append(f"bout [{start}, {end}]: {problem}")
    return verdict
