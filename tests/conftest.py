"""Shared fixture builders for the test suite."""

import numpy as np
import pytest

from gaitcadence.signal import TriaxialRecord
from gaitcadence.synth import (BoutModel, ConstantProfile, LinearProfile,
                               WalkingModelSpec, WaveShape, ar1_sd_for_snr,
                               synthesize_walk)

# Shape used throughout: second harmonic twice the fundamental.
TWO_HARMONIC = dict(alphas=[0.4, 0.8], betas=[0.5, 2.1], alpha0=0.3)


def make_walk(duration_s=64.0, bout=(2.0, 62.0), fs=100.0, if_profile=None,
              shape_kw=None, snr_db=10.0, rho=0.5, seed=7, amp=1.0):
    """Synthesize a single-bout walking fixture at the requested SNR."""
    shape_kw = dict(shape_kw or TWO_HARMONIC)
    shape = WaveShape(**shape_kw).normalized()
    if if_profile is None:
        if_profile = ConstantProfile(1.0)
    bout_model = BoutModel(start_s=bout[0], end_s=bout[1],
                           if_profile=if_profile, shape=shape,
                           amp_profile=ConstantProfile(amp))
    spec = WalkingModelSpec(fs=fs, duration_s=duration_s, bouts=[bout_model])
    clean = synthesize_walk(spec, seed=seed)
    if snr_db is not None:
        spec.noise_sd = ar1_sd_for_snr(clean.clean.samples,
                                       ~np.isnan(clean.truth_if), snr_db)
        spec.noise_rho = rho
    return spec, synthesize_walk(spec, seed=seed)


def as_record(result, baseline=1.5):
    """Place a synthetic signal on the x axis of a triaxial record."""
    n = len(result.signal)
    return TriaxialRecord(x=baseline + result.signal.samples, y=np.zeros(n),
                          z=np.zeros(n), fs=result.signal.fs)


def log_scores(mag):
    """Per-cell log score with the same floor/normalization as the
    extractor."""
    total = mag.sum()
    return np.log(np.maximum(mag, 1e-12 * total)) - np.log(total)


def path_objective(mag, bins, penalty):
    """Score one path as the extractor does."""
    return float(log_scores(mag)[np.arange(len(bins)), bins].sum()
                 - penalty * np.sum(np.diff(np.asarray(bins, float)) ** 2))


def enumerated_best(mag, penalty):
    """Enumerate every path; ``(bins, objective)`` of the best one, ties
    resolved to the lexicographically smallest."""
    T, B = mag.shape
    paths = np.indices((B,) * T).reshape(T, -1).T  # one path per row, lexicographic
    vals = log_scores(mag)[np.arange(T), paths].sum(axis=1)
    vals -= penalty * np.sum(np.diff(paths, axis=1).astype(float) ** 2, axis=1)
    best = paths[int(np.argmax(vals))]
    return best, path_objective(mag, best, penalty)


@pytest.fixture(scope="session")
def const_walk():
    """60 s constant-1-Hz two-harmonic fixture at 10 dB SNR (shared)."""
    return make_walk()


@pytest.fixture(scope="session")
def chirp_walk():
    """90 s bout ramping 0.8 -> 1.2 Hz at 10 dB SNR (shared)."""
    return make_walk(duration_s=94.0, bout=(2.0, 92.0),
                     if_profile=LinearProfile(0.8, 1.2), seed=11)
