"""Penalized ridge extraction and conversion to cadence units."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError

ZERO_FLOOR_FRACTION = 1e-12
# Candidate cells per banded maximum (1 MB); a wider window is reduced a
# few rows at a time.
_CAND_CELLS = 1 << 17


@dataclass
class RidgeCurve:
    """Maximum-energy curve through a TFR block.

    ``bins`` holds one zero-based frequency-bin index per analysis frame.
    ``band`` is the inclusive (low, high) bin range the search was
    restricted to. ``degenerate`` marks an all-zero input block, for which
    the constant lowest-bin curve is returned.
    """

    bins: np.ndarray
    band: tuple[int, int]
    degenerate: bool = False

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.int64)
        lo, hi = self.band
        if self.bins.size < 1:
            raise StructuralError("ridge must cover at least one frame")
        if self.bins.min() < lo or self.bins.max() > hi:
            raise StructuralError("ridge leaves its search band")


@dataclass
class CadenceTrace:
    """Per-frame instantaneous frequency and cadence in physical units."""

    times: np.ndarray
    if_hz: np.ndarray
    cadence_hz: np.ndarray
    frame_dt: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.if_hz = np.asarray(self.if_hz, dtype=np.float64)
        self.cadence_hz = np.asarray(self.cadence_hz, dtype=np.float64)
        if not (self.times.size == self.if_hz.size == self.cadence_hz.size):
            raise StructuralError("trace arrays must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise StructuralError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size


def ridge_dp(mag: np.ndarray, penalty: float, out: np.ndarray | None = None):
    """Exact penalized-ridge dynamic program over a magnitude block.

    Maximizes ``sum_t log(mag[t, c(t)] / Z) - penalty * sum |c(t)-c(t-1)|^2``
    where ``Z`` is the total magnitude of the block and zero cells are
    floored at ``1e-12 * Z`` before the log. Ties, as rounded in the backward
    sums, resolve to the lowest bin front to back. Returns ``(bins,
    degenerate)``: the maximizing path in block-local columns (its value is
    not computed), and whether the block is all zero, which gives bins 0.

    The backward pass keeps only values: row ``t`` of the log-score block is
    overwritten with the best sum from frame ``t`` on. A successor more than
    ``W = floor(sqrt(range / penalty)) + 1`` bins away, where ``range`` is
    the spread of the next row, trails ``b' = b`` by more than that spread,
    so each maximum is taken over ``2W + 1`` successors only; rounding is
    monotone, so it is the exact maximum. A forward pass recovers the path
    from the full rows, with the same floats as a full comparison. O(T * B *
    W) time; besides the score block it keeps O(B) rows and one bounded
    candidate buffer per call, no pointer array and no B x B matrix.

    The score block is a new array unless ``out``, a float64 array of
    ``mag``'s shape, is given; ``out`` may be ``mag`` itself, which then
    ends up overwritten with the backward sums. An all-zero block returns
    before anything is written; a block whose total is not finite (a NaN or
    infinite cell, or a sum that overflows) raises ``ParameterError``.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.size == 0:
        raise StructuralError("ridge block must be a non-empty 2-D matrix")
    if not (math.isfinite(penalty) and penalty >= 0):
        raise ParameterError(f"penalty must be finite and >= 0, got {penalty}")
    T, B = mag.shape
    if out is not None and (out.shape != mag.shape or out.dtype != np.float64):
        raise StructuralError("ridge out must be a float64 array of the "
                              "block's shape")

    total = mag.sum()
    if not math.isfinite(total):
        raise ParameterError(f"ridge block total is not finite ({total})")
    if total <= 0:
        return np.zeros(T, dtype=np.int64), True

    score = np.maximum(mag, ZERO_FLOOR_FRACTION * total, out=out)
    np.log(score, out=score)
    score -= np.log(total)

    # jump[B - 1 + d] is the cost of moving d bins; padded[B - 1 + b] holds
    # the next row's bin b, with B - 1 cells of -inf on each side, so
    # shifted[B - 1 + d, b] is its bin b + d, or -inf off the band.
    jump = penalty * np.arange(1 - B, B, dtype=np.float64) ** 2
    padded = np.full(3 * B - 2, -np.inf)
    shifted = np.lib.stride_tricks.sliding_window_view(padded, 2 * B - 1).T
    # Scratch for every row: the candidates of one banded maximum, at most
    # max(_CAND_CELLS, 2B - 1) cells and never more than all (2B - 1) x B,
    # and one B-wide row of maxima or differences.
    cand = np.empty(min(max(_CAND_CELLS, 2 * B - 1), (2 * B - 1) * B))
    row = np.empty(B)
    for t in range(T - 2, -1, -1):
        nxt = score[t + 1]
        if penalty == 0:
            score[t] += nxt.max()
            continue
        spread = float(nxt.max() - nxt.min())
        W = min(B - 1, math.floor(min(math.sqrt(spread / penalty), B)) + 1)
        padded[B - 1 : 2 * B - 1] = nxt
        near = slice(B - 1 - W, B + W)
        step = max(1, _CAND_CELLS // (2 * W + 1))
        for b in range(0, B, step):
            cols = slice(b, min(b + step, B))
            width = cols.stop - b
            block = cand[: (2 * W + 1) * width].reshape(2 * W + 1, width)
            np.subtract(shifted[near, cols], jump[near, None], out=block)
            np.maximum.reduce(block, axis=0, out=row[:width])
            score[t, cols] += row[:width]

    bins = np.empty(T, dtype=np.int64)
    bins[0] = np.argmax(score[0])
    for t in range(1, T):
        prev = bins[t - 1]
        np.subtract(score[t], jump[B - 1 - prev : 2 * B - 1 - prev], out=row)
        bins[t] = row.argmax()
    return bins, False


def check_band(band_hz, fs: float) -> tuple[float, float]:
    """``band_hz`` as ``(lo_hz, hi_hz)``; raises ``ParameterError`` if the
    band is inverted or reaches above the Nyquist frequency ``fs / 2``."""
    lo_hz, hi_hz = band_hz
    if hi_hz < lo_hz:
        raise ParameterError(f"band is inverted: {band_hz}")
    if hi_hz > fs / 2.0:
        raise ParameterError(
            f"band {band_hz} Hz reaches above the Nyquist frequency "
            f"{fs / 2.0:g} Hz")
    return lo_hz, hi_hz


def band_to_bins(band_hz, fs: float, fft_half: int) -> tuple[int, int]:
    """Inclusive zero-based bin range covering a physical frequency band,
    which is checked by ``check_band``."""
    lo_hz, hi_hz = check_band(band_hz, fs)
    lo = max(0, math.ceil(lo_hz * 2.0 * fft_half / fs - 1e-9))
    hi = min(fft_half, math.floor(hi_hz * 2.0 * fft_half / fs + 1e-9))
    if lo > hi:
        raise ParameterError(f"band {band_hz} Hz maps to no frequency bins")
    return lo, hi


def cadence_from_ridge(r: RidgeCurve, fs: float, fft_half: int, hop: int = 1,
                       t0: float = 0.0) -> CadenceTrace:
    """Convert a bin-index ridge to instantaneous frequency and cadence.

    Bin ``c`` (zero-based) maps to ``c * fs / (2M)`` Hz; the cadence is twice
    the instantaneous frequency (two steps per stride cycle).
    """
    if_hz = r.bins * fs / (2.0 * fft_half)
    cadence = 2.0 * if_hz
    frame_dt = hop / fs
    times = t0 + np.arange(r.bins.size) * frame_dt
    return CadenceTrace(times=times, if_hz=if_hz, cadence_hz=cadence,
                        frame_dt=frame_dt)
