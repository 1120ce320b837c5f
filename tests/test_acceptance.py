"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from gaitcadence.analysis import BoutInterval, bland_altman
from gaitcadence.cli import main
from gaitcadence.config import PipelineConfig
from gaitcadence.io import load_trace_csv, write_labels_csv, write_triaxial_csv
from gaitcadence.pipeline import analyze_bout
from gaitcadence.ridge import CadenceTrace, band_to_bins, ridge_dp
from gaitcadence.signal import (Signal, gaussian_window, median_detrend,
                                rectify, vector_magnitude)
from gaitcadence.synth import ConstantProfile
from gaitcadence.tfr import dsst, stft

from conftest import as_record, enumerated_best, make_walk, path_objective
from oracle import stft_direct_sum


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. STFT oracle equivalence ----------------------------------------------

def test_stft_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(64, 513))
        K = int(rng.integers(2, 65))
        M = int(rng.integers(2 * K + 1, 6 * K + 4))
        x = rng.normal(size=N)
        w = gaussian_window(K, float(rng.uniform(0.1, 0.4)))
        fast = stft(Signal(x, fs=100.0), w, M).values
        ref = stft_direct_sum(x, w.h, K, M)
        err = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report("stft-oracle-equivalence",
           worst <= 1e-9 and elapsed < 10.0,
           f"worst relative Frobenius error {worst:.2e} over 50 signals "
           f"in {elapsed:.1f} s")


# --- 2. Ridge DP exactness ----------------------------------------------------

def test_ridge_dp_exactness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    lambdas = (0.0, 0.1, 1.0, 10.0)
    checked = 0
    for i in range(200):
        penalty = lambdas[i % 4]
        T = int(rng.integers(1, 7))
        B = int(rng.integers(2, 9))
        mag = rng.uniform(0.0, 5.0, size=(T, B))
        dp_bins, _ = ridge_dp(mag, penalty)
        ref_bins, ref_obj = enumerated_best(mag, penalty)
        assert np.array_equal(dp_bins, ref_bins), (
            f"path mismatch on block {i} (lambda={penalty})")
        assert path_objective(mag, dp_bins, penalty) == ref_obj
        checked += 1
    elapsed = time.perf_counter() - t0
    report("ridge-dp-exactness",
           checked == 200 and elapsed < 5.0,
           f"200 blocks matched enumeration exactly in {elapsed:.1f} s")


# --- 3. Constant-cadence recovery ----------------------------------------------

def test_constant_cadence_recovery(const_walk, tmp_path):
    spec, res = const_walk
    t0 = time.perf_counter()
    rec_path = tmp_path / "walk.csv"
    labels_path = tmp_path / "labels.csv"
    write_triaxial_csv(rec_path, as_record(res))
    write_labels_csv(labels_path, res.bouts)
    code = main(["run", str(rec_path), str(labels_path),
                 "-o", str(tmp_path / "out")])
    assert code == 0
    trace, _ = load_trace_csv(tmp_path / "out" / "cadence.csv")
    interior = (trace.times >= 8.0) & (trace.times <= 56.0)  # inner 80%
    cad = trace.cadence_hz[interior]
    mean = float(cad.mean())
    maxerr = float(np.abs(cad - 2.0).max())
    elapsed = time.perf_counter() - t0
    report("constant-cadence-recovery",
           abs(mean - 2.0) <= 0.02 and maxerr <= 0.05 and elapsed < 30.0,
           f"mean {mean:.4f} Hz (|bias| <= 0.02), max per-frame error "
           f"{maxerr:.4f} Hz (<= 0.05) in {elapsed:.1f} s")


# --- 4. Chirp tracking ----------------------------------------------------------

def test_chirp_tracking(chirp_walk, tmp_path):
    spec, res = chirp_walk
    t0 = time.perf_counter()
    rec_path = tmp_path / "chirp.csv"
    labels_path = tmp_path / "labels.csv"
    write_triaxial_csv(rec_path, as_record(res))
    write_labels_csv(labels_path, res.bouts)
    code = main(["run", str(rec_path), str(labels_path),
                 "-o", str(tmp_path / "out")])
    assert code == 0
    trace, _ = load_trace_csv(tmp_path / "out" / "cadence.csv")
    interior = (trace.times >= 11.0) & (trace.times <= 83.0)  # inner 80%
    truth_if = 0.8 + 0.4 * (trace.times[interior] - 2.0) / 90.0
    rmse = float(np.sqrt(np.mean(
        (trace.cadence_hz[interior] - 2.0 * truth_if) ** 2)))
    elapsed = time.perf_counter() - t0
    report("chirp-tracking",
           rmse <= 0.06 and elapsed < 30.0,
           f"cadence RMSE {rmse:.4f} Hz (<= 0.06) in {elapsed:.1f} s")


# --- 5. Harmonic suppression ----------------------------------------------------

def band_masses(sig, cfg, band_hz):
    """Spectrogram and dsSST energy of one Hz band.

    The kernel squeezes exactly the band's columns, as the pipeline squeezes
    its search band.
    """
    K = cfg.window_half(sig.fs)
    M = cfg.fft_half(K)
    lo, hi = band_to_bins(band_hz, sig.fs, M)
    band_mag, grids = dsst(sig, gaussian_window(K, cfg.sigma), M, cfg.hop,
                           cfg.gamma, cfg.upsilon, (lo, hi), kinds=("stft",))
    spectrogram = float(np.sum(grids["stft"][:, lo : hi + 1] ** 2))
    return spectrogram, float(np.sum(band_mag ** 2))


def test_harmonic_suppression(const_walk):
    # Premise: the fixture's spectrogram carries more energy at the second
    # harmonic than at the fundamental (the wave shape has alpha2 = 2*alpha1).
    # Claim: the pipeline's de-shape synchrosqueezed output reverses this by
    # a wide margin. Bands are +-0.15 Hz around 1 and 2 Hz; masses are
    # squared magnitudes.
    spec, res = const_walk
    cfg = PipelineConfig()
    fund, harm2 = (0.85, 1.15), (1.85, 2.15)

    raw = Signal(res.signal.samples[int(2 * spec.fs):int(62 * spec.fs)],
                 spec.fs, t0=2.0)
    spec_ratio = band_masses(raw, cfg, harm2)[0] / band_masses(raw, cfg, fund)[0]

    mag = vector_magnitude(as_record(res)).samples
    sig = rectify(median_detrend(
        Signal(mag[int(2 * spec.fs):int(62 * spec.fs)], spec.fs, t0=2.0)))
    ds_ratio = band_masses(sig, cfg, harm2)[1] / band_masses(sig, cfg, fund)[1]
    report("harmonic-suppression",
           spec_ratio > 1.0 and ds_ratio < 0.5,
           f"spectrogram harm/fund {spec_ratio:.2f} (> 1); "
           f"dsSST harm/fund {ds_ratio:.4f} (< 0.5)")


# --- 6. Cadence plausibility band ------------------------------------------------

def test_cadence_plausibility_band():
    cfg = PipelineConfig()
    means = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        if_hz = rng.uniform(0.82, 1.18)
        a1 = rng.uniform(0.3, 0.6)
        alphas = [a1, rng.uniform(0.5, 2.5) * a1, rng.uniform(0.0, 0.8) * a1]
        betas = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.uniform(0.5, 2.0)
        spec, res = make_walk(
            duration_s=36.0, bout=(2.0, 34.0),
            if_profile=ConstantProfile(if_hz),
            shape_kw=dict(alphas=alphas, betas=betas,
                          alpha0=rng.uniform(0.1, 0.5)),
            snr_db=rng.uniform(6.0, 14.0), rho=rng.uniform(0.2, 0.7),
            seed=2000 + i, amp=amp)
        _, _, trace = analyze_bout(as_record(res, baseline=1.5 * amp),
                                   BoutInterval(2.0, 34.0, 1), cfg)
        means.append(float(trace.cadence_hz.mean()))
    means = np.asarray(means)
    ok = np.all((means >= 1.6) & (means <= 2.4))
    report("cadence-plausibility-band", bool(ok),
           f"20 bout means in [{means.min():.3f}, {means.max():.3f}] Hz "
           "(all within [1.6, 2.4])")


@pytest.mark.xfail(strict=True, reason="locks onto the second harmonic "
                   "(ROADMAP item 1): about 4.29 steps/s against 2.148")
def test_harmonic_lock_reproducer():
    # A freely drawn bout whose ridge locks onto the second harmonic; a
    # harmonic-lock guard has to bring its mean back to the truth.
    if_hz, amp = 1.0741, 1.3007
    spec, res = make_walk(
        duration_s=36.0, bout=(0.0, 36.0), if_profile=ConstantProfile(if_hz),
        shape_kw=dict(alphas=[0.599, 0.327, 0.3661],
                      betas=[4.7635, 0.9924, 0.1253], alpha0=0.1872),
        snr_db=11.88, rho=0.597, seed=337210733, amp=amp)
    _, _, trace = analyze_bout(as_record(res, baseline=1.5 * amp),
                               BoutInterval(0.0, 36.0, 1),
                               PipelineConfig(hop=10))
    mean = float(trace.cadence_hz.mean())
    report("harmonic-lock-reproducer", abs(mean - 2 * if_hz) <= 0.1,
           f"mean {mean:.3f} steps/s against a truth of {2 * if_hz:.3f}")


# --- 7. Bland-Altman correctness --------------------------------------------------

def test_bland_altman_correctness():
    base = np.full(16, 2.0)
    times = 0.1 * np.arange(16)
    a = CadenceTrace(times=times, if_hz=base / 2, cadence_hz=base, frame_dt=0.1)
    same = bland_altman(a, a)
    identical_ok = (same.mean_diff == 0.0 and same.sd_diff == 0.0
                    and same.loa_low == 0.0 and same.loa_high == 0.0)

    d = np.array([0.1, -0.1, 0.3, -0.3])
    t4 = 0.1 * np.arange(4)
    a4 = CadenceTrace(times=t4, if_hz=(2.0 + d) / 2, cadence_hz=2.0 + d,
                      frame_dt=0.1)
    b4 = CadenceTrace(times=t4, if_hz=np.full(4, 1.0),
                      cadence_hz=np.full(4, 2.0), frame_dt=0.1)
    stats = bland_altman(a4, b4)
    sd = math.sqrt(0.05)
    hand_ok = (abs(stats.mean_diff) < 1e-12
               and abs(stats.sd_diff - sd) < 1e-12
               and abs(stats.loa_low + 1.96 * sd) < 1e-12
               and abs(stats.loa_high - 1.96 * sd) < 1e-12)
    report("bland-altman-correctness", identical_ok and hand_ok,
           f"identical traces -> 0/[0,0]; 4-point case sd {stats.sd_diff:.12f} "
           f"matches sqrt(0.05) to 1e-12")


# --- 8. Determinism -----------------------------------------------------------------

def test_run_determinism(tmp_path):
    spec, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
    rec_path = tmp_path / "walk.csv"
    labels_path = tmp_path / "labels.csv"
    write_triaxial_csv(rec_path, as_record(res))
    write_labels_csv(labels_path, res.bouts)
    for d in ("a", "b"):
        code = main(["run", str(rec_path), str(labels_path),
                     "-o", str(tmp_path / d), "--window-span-s", "8",
                     "--export-tfr", "dssst", "--export-format", "f64le"])
        assert code == 0
    names = ("cadence.csv", "summary.csv", "tfr_bout01_dssst.f64le")
    same = all((tmp_path / "a" / n).read_bytes()
               == (tmp_path / "b" / n).read_bytes() for n in names)
    report("run-determinism", same,
           f"byte-identical outputs across two runs: {', '.join(names)}")
