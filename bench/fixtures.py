"""Seeded synthetic workloads for the cadence benchmark.

Each workload function renders a recording with ``gaitcadence.synth``,
writes only the triaxial CSV and the bout-label CSV that the program reads,
and keeps the per-sample true instantaneous frequency in memory for the
correctness gate. The same seed always gives the same files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gaitcadence.analysis import BoutInterval
from gaitcadence.io import write_labels_csv, write_triaxial_csv
from gaitcadence.signal import TriaxialRecord
from gaitcadence.synth import (BoutModel, ConstantProfile, WalkingModelSpec,
                               WaveShape, ar1_noise, ar1_sd_for_snr,
                               synthesize_walk)

FS = 100.0
BASELINE = 1.5  # constant x-axis offset standing in for gravity
TWO_HARMONIC = dict(alphas=[0.4, 0.8], betas=[0.5, 2.1], alpha0=0.3)


@dataclass
class Fixture:
    """Files for one workload plus the ground truth they were built from."""

    name: str
    csv: Path
    labels: Path
    truth_if: np.ndarray  # per sample; NaN outside bouts
    bouts: list  # (start_s, end_s, label)
    hop: int
    rule: str  # correctness rule: "bias" or "band"
    export_kinds: tuple = ()
    export_format: str = "csv"

    @property
    def bout_seconds(self) -> float:
        return float(sum(e - s for s, e, _ in self.bouts))


def _render(duration_s, span, if_profile, shape, amp, snr_db, rho, seed,
            phase0=0.0):
    """Samples and per-sample true IF for one bout on AR(1) noise.

    The bout covers ``span``; the rest of ``duration_s`` is noise only.
    """
    bout = BoutModel(start_s=span[0], end_s=span[1], if_profile=if_profile,
                     shape=shape, amp_profile=ConstantProfile(amp),
                     phase0=phase0)
    spec = WalkingModelSpec(fs=FS, duration_s=duration_s, bouts=[bout])
    clean = synthesize_walk(spec, seed=seed)
    spec.noise_sd = ar1_sd_for_snr(clean.clean.samples,
                                   ~np.isnan(clean.truth_if), snr_db)
    spec.noise_rho = rho
    res = synthesize_walk(spec, seed=seed)
    return res.signal.samples, res.truth_if


def _write(name, outdir, x, truth_if, bouts, **kw) -> Fixture:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = x.size
    rec = TriaxialRecord(x=x, y=np.zeros(n), z=np.zeros(n), fs=FS)
    csv, labels = outdir / f"{name}.csv", outdir / f"{name}_labels.csv"
    write_triaxial_csv(csv, rec)
    write_labels_csv(labels, [BoutInterval(s, e, lab) for s, e, lab in bouts])
    return Fixture(name=name, csv=csv, labels=labels, truth_if=truth_if,
                   bouts=bouts, **kw)


def build_steady(outdir, seed, length_s=60.0, hop=1) -> Fixture:
    """One bout at a constant 1.0 Hz stride (2.00 steps/s), 10 dB AR(1) noise.

    The wave shape's second harmonic is twice the fundamental. The bout has
    2 s of noise on either side; the seed draws the noise and start phase.
    """
    rng = np.random.default_rng(seed)
    span = (2.0, 2.0 + length_s)
    samples, truth = _render(length_s + 4.0, span, ConstantProfile(1.0),
                             WaveShape(**TWO_HARMONIC).normalized(), amp=1.0,
                             snr_db=10.0, rho=0.5,
                             seed=int(rng.integers(2**31)),
                             phase0=float(rng.uniform()))
    return _write("steady", outdir, BASELINE + samples, truth, [(*span, 1)],
                  hop=hop, rule="bias")


def _plausibility_bout(i: int):
    """Bout ``i`` of the acceptance gate's 20-bout plausibility set.

    Draws stride, wave shape, amplitude, SNR and AR(1) coefficient exactly
    as ``test_cadence_plausibility_band`` does. Freely drawn parameters from
    the same ranges put about 2 % of bouts on a harmonic (see CHANGES.md),
    so the benchmark keeps the set the acceptance gate already passes.
    """
    rng = np.random.default_rng(1000 + i)
    if_hz = rng.uniform(0.82, 1.18)
    a1 = rng.uniform(0.3, 0.6)
    alphas = [a1, rng.uniform(0.5, 2.5) * a1, rng.uniform(0.0, 0.8) * a1]
    betas = rng.uniform(0, 2 * np.pi, size=3)
    amp = rng.uniform(0.5, 2.0)
    shape = WaveShape(alphas, betas, alpha0=rng.uniform(0.1, 0.5)).normalized()
    return if_hz, shape, amp, rng.uniform(6.0, 14.0), rng.uniform(0.2, 0.7)


def build_daylog(outdir, seed, n_bouts=20) -> Fixture:
    """The plausibility set as one recording: labelled bouts with gaps.

    The seed draws each bout's length (32-40 s), the gaps (10-30 s), the
    labels (1-3) and the noise.
    """
    rng = np.random.default_rng(seed)
    parts, truths, bouts = [], [], []

    def gap():
        n = int(round(rng.uniform(10.0, 30.0) * FS))
        parts.append(BASELINE + ar1_noise(n, 0.05, 0.5, rng))
        truths.append(np.full(n, np.nan))

    for i in range(n_bouts):
        gap()
        start = sum(p.size for p in parts)
        n = int(round(rng.uniform(32.0, 40.0) * FS))
        if_hz, shape, amp, snr_db, rho = _plausibility_bout(i)
        samples, truth = _render(n / FS, (0.0, n / FS), ConstantProfile(if_hz),
                                 shape, amp, snr_db, rho,
                                 seed=int(rng.integers(2**31)))
        # The offset scales with amplitude so the magnitude never folds at 0.
        parts.append(BASELINE * amp + samples)
        truths.append(truth)
        bouts.append((start / FS, (start + n) / FS, int(rng.integers(1, 4))))
    gap()
    return _write("daylog", outdir, np.concatenate(parts),
                  np.concatenate(truths), bouts, hop=10, rule="band",
                  export_kinds=("dssst",), export_format="pgm")


WORKLOADS = {
    "steady60": build_steady,
    "daylog": build_daylog,
}


def build(workload: str, outdir, seed: int) -> Fixture:
    return WORKLOADS[workload](outdir, seed)
