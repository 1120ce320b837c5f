"""Untraced and traced measurement of one workload.

Load is a closed loop with one client: each ``run_pipeline`` call starts
when the previous one has ended, in this process. Calls repeat until their
summed wall time reaches the requested seconds (at least one call). Every
call's outputs pass through the correctness gate, and every call of a run
must produce byte-identical ``cadence.csv`` and ``summary.csv``.

On a virtual machine the hypervisor can take CPU time away from the guest
(steal time); while it does, calls run up to half again as long. Untraced
timings therefore come from the calls that lost at most ``STEAL_LIMIT`` of
their CPU capacity, and from all calls only when none did.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gaitcadence.config import load_config
from gaitcadence.pipeline import run_pipeline

from fixtures import build_steady
from gate import check, read_outputs, sha256
from traced import block_probe, traced_run_pipeline
from tracer import Tracer

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
STEAL_LIMIT = 0.05


def steal_ticks() -> int:
    """Clock ticks all CPUs have lost to the hypervisor since boot (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


@dataclass
class Tally:
    """Gate outcomes and output hashes accumulated over a run's calls."""

    attempted: int = 0
    failed: int = 0
    sq_err: float = 0.0
    frames: int = 0
    messages: list = field(default_factory=list)
    hashes: set = field(default_factory=set)

    def gate(self, fixture, outdir) -> list:
        """Check one call's outputs; returns its per-bout ``elapsed_s``."""
        times, cadence, bouts = read_outputs(outdir)
        v = check(fixture, times, cadence, bouts)
        self.attempted += v.bouts
        self.failed += v.failed
        self.sq_err += v.sq_err
        self.frames += v.frames
        self.messages += v.messages
        self.hashes.add((sha256(Path(outdir) / "cadence.csv"),
                         sha256(Path(outdir) / "summary.csv")))
        return [b["elapsed_s"] for b in bouts]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.hashes) == 1

    @property
    def rmse(self) -> float:
        return float(np.sqrt(self.sq_err / self.frames)) if self.frames else float("nan")


def _call(cfg, fixture, outdir) -> float:
    t = time.perf_counter()
    run_pipeline(cfg, fixture.csv, fixture.labels, outdir,
                 export_kinds=fixture.export_kinds,
                 export_format=fixture.export_format)
    return time.perf_counter() - t


def warm_up(fixture, workdir):
    """One short run on the workload's settings, so plans and code paths are warm."""
    small = build_steady(Path(workdir) / "warm", seed=0, length_s=16.0,
                         hop=fixture.hop)
    small.export_kinds, small.export_format = (fixture.export_kinds,
                                               fixture.export_format)
    _call(load_config(hop=fixture.hop), small, Path(workdir) / "warm" / "out")


def fresh_children(fixture, workdir, src) -> tuple[list, float]:
    """Set-up times of ``SETUP_SAMPLES`` fresh interpreters; peak RSS of the first.

    The first child also runs the workload once into ``workdir/child_out``;
    the others only set up.
    """
    setups, rss = [], None
    for i in range(SETUP_SAMPLES):
        job = dict(src=str(src), csv=str(fixture.csv), labels=str(fixture.labels),
                   outdir=str(Path(workdir) / "child_out"), hop=fixture.hop,
                   export_kinds=list(fixture.export_kinds),
                   export_format=fixture.export_format, run=i == 0)
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)],
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(result["setup_s"])
        rss = result.get("peak_rss_mb", rss)
    return setups, rss


def kept_calls(calls: list) -> list:
    """The ``(wall, stolen share, ...)`` calls within ``STEAL_LIMIT``, or all if none are."""
    return [c for c in calls if c[1] <= STEAL_LIMIT] or calls


def bout_latencies(calls: list) -> np.ndarray:
    """Each bout's median ``elapsed_s`` over the ``(wall, stolen share, latencies)`` calls.

    Every call runs the same bouts in the same order, so a bout's latency is
    taken as its median over the calls; percentiles over these describe the
    spread between bouts rather than one slow call.
    """
    return np.median(np.array([c[2] for c in calls], dtype=float), axis=0)


def untraced(fixture, seconds, workdir, src) -> tuple[dict, Tally]:
    """End-to-end metrics of one workload."""
    workdir = Path(workdir)
    setups, rss = fresh_children(fixture, workdir, src)
    tally = Tally()
    tally.gate(fixture, workdir / "child_out")
    warm_up(fixture, workdir)
    cfg = load_config(hop=fixture.hop)
    capacity = len(os.sched_getaffinity(0)) * os.sysconf("SC_CLK_TCK")
    calls = []  # (wall_s, stolen share, per-bout latencies)
    while not calls or sum(c[0] for c in calls) < seconds:
        before = steal_ticks()
        wall = _call(cfg, fixture, workdir / "out")
        stolen = (steal_ticks() - before) / (wall * capacity)
        calls.append((wall, stolen, tally.gate(fixture, workdir / "out")))
    kept = kept_calls(calls)
    wall = statistics.median(c[0] for c in kept)
    latencies = bout_latencies(kept)
    return {
        "wall_s": wall,
        "rtf": fixture.bout_seconds / wall,
        "bout_p50_s": float(np.percentile(latencies, 50)),
        "bout_p90_s": float(np.percentile(latencies, 90)),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
        "calls": f"{len(calls)}, timed {len(kept)}, wall "
                 + " ".join(f"{c[0]:.3f}" for c in calls) + ", steal "
                 + " ".join(f"{c[1]:.3f}" for c in calls),
    }, tally


def _layer_totals(tracer: Tracer, run_id: int) -> dict:
    """Per-layer times and counts of one traced call, summed over its bouts."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.run_id == run_id]

    def time_of(name):
        return sum(s.duration for _, s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts[key] for _, s in spans if s.name == name)

    analyze_s = time_of("tfr.analyze")
    return {
        "io.load_s": time_of("io.load"),
        "io.rows": count("io.load", "rows"),
        "io.write_s": time_of("io.write"),
        "io.export_s": time_of("io.export"),
        "io.bytes_out": count("io.export", "bytes_out") + count("io.write", "bytes_out"),
        "signal.preprocess_s": time_of("signal.preprocess"),
        "signal.detrend_s": time_of("signal.detrend"),
        "signal.samples": count("signal.preprocess", "samples"),
        "tfr.analyze_s": analyze_s,
        "tfr.frames": count("tfr.analyze", "frames"),
        "tfr.cells": count("tfr.analyze", "cells"),
        "tfr.frames_per_s": count("tfr.analyze", "frames") / analyze_s,
        "ridge.dp_s": time_of("ridge.dp"),
        "ridge.cell_ops": count("ridge.dp", "cell_ops"),
        "ridge.degenerate": count("ridge.dp", "degenerate"),
        "analysis.summary_s": time_of("analysis.summary"),
        "pipeline.other_s": sum(tracer.self_time(i) for i, s in spans
                                if s.name in ("pipeline.run", "pipeline.bout")),
    }


def _peak_alloc(tracer: Tracer, run_id: int, name: str) -> float:
    return max(s.counts["peak_alloc_mb"] for s in tracer.spans
               if s.run_id == run_id and s.name == name)


def traced(fixture, seconds, workdir) -> tuple[dict, Tally, Tracer]:
    """Per-layer metrics of one workload.

    Untraced and traced calls alternate until their summed wall time reaches
    ``seconds``; the traced calls give the layer times. One more traced call
    with allocation tracking gives the peak allocations, and the block probe
    gives the per-stage times.
    """
    workdir = Path(workdir)
    warm_up(fixture, workdir)
    cfg = load_config(hop=fixture.hop)
    tracer, tally = Tracer(), Tally()

    def traced_call():
        tracer.run_id += 1
        t = time.perf_counter()
        sig = traced_run_pipeline(tracer, cfg, fixture.csv, fixture.labels,
                                  workdir / "traced_out", fixture.export_kinds,
                                  fixture.export_format)
        elapsed = time.perf_counter() - t
        tally.gate(fixture, workdir / "traced_out")
        return elapsed, sig

    plain, spanned, totals = [], [], []
    while not spanned or sum(plain) + sum(spanned) < seconds:
        plain.append(_call(cfg, fixture, workdir / "out"))
        tally.gate(fixture, workdir / "out")
        elapsed, sig = traced_call()
        spanned.append(elapsed)
        totals.append(_layer_totals(tracer, tracer.run_id))
    metrics = {k: statistics.median_low(t[k] for t in totals) for k in totals[0]}
    metrics["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)

    tracer.track_alloc = True
    traced_call()
    tracer.track_alloc = False
    metrics["tfr.peak_alloc_mb"] = _peak_alloc(tracer, tracer.run_id, "tfr.analyze")
    metrics["ridge.peak_alloc_mb"] = _peak_alloc(tracer, tracer.run_id, "ridge.dp")

    metrics.update(block_probe(tracer, sig, cfg))
    metrics["calls"] = len(spanned)
    return metrics, tally, tracer
