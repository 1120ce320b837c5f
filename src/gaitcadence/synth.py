"""Synthetic walking-signal generator with retained ground truth.

Generates bout-structured quasi-periodic signals: within each bout the clean
signal is ``a(t) * s(phase(t))`` where ``s`` is a unit-power 1-periodic wave
shape given by a truncated Fourier series and the phase integrates a supplied
instantaneous-frequency profile. AR(1) noise rides on top everywhere. The
true per-sample instantaneous frequency is kept alongside the samples so the
whole estimation pipeline can be verified end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError, ParameterError
from .signal import Signal

SHAPE_NORM_TOL = 1e-6
SLOW_EPS = 0.1  # bound for the relative-variation checks (C2, C3)
# Most samples a recording may have (46.6 h at 100 Hz): `synth` peaks at
# about 140 B per sample, 2.4 GB at this bound (measured, 64-bit Linux).
MAX_SAMPLES = 2**24


@dataclass
class ConstantProfile:
    """Time-constant profile value."""

    value: float

    def sample(self, t: np.ndarray, start: float, end: float) -> np.ndarray:
        return np.full_like(t, self.value)


@dataclass
class LinearProfile:
    """Profile ramping linearly from ``start_value`` to ``end_value`` over a bout."""

    start_value: float
    end_value: float

    def sample(self, t: np.ndarray, start: float, end: float) -> np.ndarray:
        frac = (t - start) / (end - start)
        return self.start_value + (self.end_value - self.start_value) * frac


@dataclass
class WaveShape:
    """1-periodic wave shape ``alpha0 + sum_j alphas[j] cos(2 pi j phi + betas[j])``.

    ``alphas[0]`` is the fundamental coefficient (harmonic j=1). Unit power
    means ``alpha0^2 + sum(alphas^2) / 2 == 1`` (cosines carry half their
    squared coefficient in mean power).
    """

    alphas: np.ndarray
    betas: np.ndarray
    alpha0: float = 0.0

    def __post_init__(self):
        self.alphas = np.atleast_1d(np.asarray(self.alphas, dtype=np.float64))
        self.betas = np.atleast_1d(np.asarray(self.betas, dtype=np.float64))
        if self.alphas.size != self.betas.size:
            raise ParameterError("alphas and betas must have equal length")
        if self.alphas.size == 0:
            raise ParameterError("wave shape needs at least the fundamental")

    def rms(self) -> float:
        return math.sqrt(self.alpha0**2 + 0.5 * float(np.sum(self.alphas**2)))

    def normalized(self) -> "WaveShape":
        """Copy rescaled to unit power (harmonic ratios preserved)."""
        r = self.rms()
        if r == 0:
            raise ParameterError("cannot normalize an all-zero shape")
        return WaveShape(self.alphas / r, self.betas.copy(), self.alpha0 / r)

    def evaluate(self, phase_cycles: np.ndarray) -> np.ndarray:
        out = np.full_like(phase_cycles, self.alpha0, dtype=np.float64)
        for j, (a, b) in enumerate(zip(self.alphas, self.betas), start=1):
            out += a * np.cos(2.0 * np.pi * j * phase_cycles + b)
        return out


@dataclass
class BoutModel:
    """One walking interval: phase, amplitude, and wave-shape description."""

    start_s: float
    end_s: float
    if_profile: object
    shape: WaveShape
    amp_profile: object = field(default_factory=lambda: ConstantProfile(1.0))
    label: int = 1
    phase0: float = 0.0  # initial phase, in cycles


@dataclass
class WalkingModelSpec:
    """Full parameterization of the synthetic walking model."""

    fs: float
    duration_s: float
    bouts: list
    noise_sd: float = 0.0
    noise_rho: float = 0.0

    def n_samples(self) -> int:
        count = self.duration_s * self.fs
        if not count <= MAX_SAMPLES:
            raise ParameterError(f"{self.duration_s:g} s at {self.fs:g} Hz "
                                 f"is over {MAX_SAMPLES} samples")
        return int(round(count))


@dataclass
class SynthResult:
    """Generated signal plus the ground truth it was built from."""

    signal: Signal
    clean: Signal
    truth_if: np.ndarray  # per-sample instantaneous frequency; NaN outside bouts
    bouts: list


def _validate_bout(bout: BoutModel, t: np.ndarray, phi_prime: np.ndarray,
                   amp: np.ndarray, steps: np.ndarray):
    if bout.end_s <= bout.start_s:
        raise ModelValidationError(
            f"bout [{bout.start_s}, {bout.end_s}] has nonpositive length"
        )
    if np.any(phi_prime <= 0):
        raise ModelValidationError(
            "C2 violated: instantaneous frequency must stay positive"
        )
    if t.size >= 3:
        phi_second = np.gradient(phi_prime, t)
        if np.any(np.abs(phi_second) > SLOW_EPS * phi_prime + 1e-12):
            raise ModelValidationError(
                "C2 violated: |IF slope| exceeds eps * IF on the grid"
            )
    if np.any(amp <= 0):
        raise ModelValidationError("C3 violated: amplitude must stay positive")
    if t.size >= 3:
        amp_slope = np.gradient(amp, t)
        if np.any(np.abs(amp_slope) > SLOW_EPS * phi_prime + 1e-12):
            raise ModelValidationError(
                "C3 violated: |amplitude slope| exceeds eps * IF on the grid"
            )
    if bout.shape.alphas[0] <= 0:
        raise ModelValidationError(
            "C4 violated: fundamental coefficient must be positive"
        )
    if abs(bout.shape.rms() - 1.0) > SHAPE_NORM_TOL:
        raise ModelValidationError(
            f"C4 violated: wave shape has RMS {bout.shape.rms():.6f}, expected 1 "
            "(use WaveShape.normalized())"
        )
    cycles = float(steps.sum())
    if cycles < 10.0:
        raise ModelValidationError(
            f"C6 violated: bout covers {cycles:.2f} cycles, needs at least 10"
        )


def ar1_noise(n: int, sd: float, rho: float,
              rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) noise with marginal standard deviation ``sd``.

    ``x[k] = rho * x[k-1] + e[k]`` with Gaussian innovations of variance
    ``sd^2 * (1 - rho^2)``; the first sample is drawn from the stationary
    distribution.
    """
    if n < 1:
        raise ParameterError(f"length must be >= 1, got {n}")
    if sd < 0:
        raise ParameterError(f"noise sd must be >= 0, got {sd}")
    if not abs(rho) < 1:
        raise ParameterError(f"AR(1) coefficient must satisfy |rho| < 1, got {rho}")
    if sd == 0:
        return np.zeros(n)
    innov_sd = sd * math.sqrt(1.0 - rho**2)
    x = np.empty(n)
    x[0] = rng.normal(0.0, sd)
    if n > 1:
        x[1:] = rng.normal(0.0, innov_sd, size=n - 1)
    y = x.tolist()
    for k in range(1, n):
        y[k] += rho * y[k - 1]
    return np.array(y)


def synthesize_walk(spec: WalkingModelSpec, seed: int = 0) -> SynthResult:
    """Render the walking model to samples, keeping the true IF per sample.

    Bout membership is half-open (``start <= t < end``). Violations of the
    model conditions raise ``ModelValidationError`` naming the condition.
    """
    if not abs(spec.noise_rho) < 1:
        raise ModelValidationError(
            f"C5 violated: AR(1) coefficient must satisfy |rho| < 1, got {spec.noise_rho}"
        )
    if spec.noise_sd < 0:
        raise ModelValidationError("C5 violated: noise sd must be >= 0")
    n = spec.n_samples()
    if n < 1:
        raise ParameterError("duration too short for the sampling rate")
    t = np.arange(n) / spec.fs
    clean = np.zeros(n)
    truth_if = np.full(n, np.nan)

    spans = sorted((b.start_s, b.end_s) for b in spec.bouts)
    for (s0, e0), (s1, _) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ModelValidationError("bouts overlap")

    for bout in spec.bouts:
        mask = (t >= bout.start_s) & (t < bout.end_s)
        tb = t[mask]
        if tb.size == 0:
            raise ModelValidationError(
                f"bout [{bout.start_s}, {bout.end_s}] contains no samples"
            )
        phi_prime = bout.if_profile.sample(tb, bout.start_s, bout.end_s)
        amp = bout.amp_profile.sample(tb, bout.start_s, bout.end_s)
        # Trapezoid rule: the phase gained between consecutive samples.
        steps = np.diff(tb) * (phi_prime[1:] + phi_prime[:-1]) / 2.0
        _validate_bout(bout, tb, phi_prime, amp, steps)
        phase = bout.phase0 + np.concatenate([[0.0], np.cumsum(steps)])
        clean[mask] = amp * bout.shape.evaluate(phase)
        truth_if[mask] = phi_prime

    noise = ar1_noise(n, spec.noise_sd, spec.noise_rho, np.random.default_rng(seed))
    samples = clean + noise
    return SynthResult(
        signal=Signal(samples, spec.fs),
        clean=Signal(clean, spec.fs),
        truth_if=truth_if,
        bouts=list(spec.bouts),
    )


def ar1_sd_for_snr(clean: np.ndarray, in_bout: np.ndarray, snr_db: float) -> float:
    """Noise sd that puts the given SNR (dB) against the in-bout signal power."""
    power = float(np.mean(np.asarray(clean)[np.asarray(in_bout)] ** 2))
    if power == 0:
        raise ParameterError("clean signal has no in-bout power")
    return math.sqrt(power / 10.0 ** (snr_db / 10.0))
