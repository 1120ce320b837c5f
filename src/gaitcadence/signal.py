"""Signal containers, triaxial magnitude, and preprocessing primitives.

All operations in this module are pure: they never mutate their inputs and
return new containers, so concurrent use is safe.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError

VALID_LOCATIONS = ("wr", "hi", "la", "ra", "other")


@dataclass
class Signal:
    """Uniformly sampled real-valued time series.

    Sample ``k`` (zero-based) is taken at time ``t0 + k / fs``.
    """

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise StructuralError("samples must be a non-empty 1-D sequence")
        bad = np.flatnonzero(~np.isfinite(self.samples))
        if bad.size:
            raise ParameterError(f"sample {bad[0]} is not finite: {self.samples[bad[0]]}")
        if not self.fs > 0:
            raise ParameterError(f"sampling rate must be positive, got {self.fs}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.fs


@dataclass
class TriaxialRecord:
    """Three equal-length acceleration axes from one sensor."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fs: float
    location: str = "other"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.z = np.asarray(self.z, dtype=np.float64)
        if not (self.x.ndim == self.y.ndim == self.z.ndim == 1):
            raise StructuralError("axes must be 1-D sequences")
        if not (self.x.size == self.y.size == self.z.size):
            raise StructuralError(
                f"axis lengths differ: x={self.x.size} y={self.y.size} z={self.z.size}"
            )
        if self.x.size == 0:
            raise StructuralError("axes must be non-empty")
        if not self.fs > 0:
            raise ParameterError(f"sampling rate must be positive, got {self.fs}")
        if self.location not in VALID_LOCATIONS:
            raise ParameterError(
                f"unknown location {self.location!r}; expected one of {VALID_LOCATIONS}"
            )

    def __len__(self) -> int:
        return self.x.size


@dataclass
class Window:
    """Odd-length analysis window ``h`` and its sampled derivative ``dh``.

    Both arrays have ``2K + 1`` entries on the normalized support
    ``[-0.5, 0.5]``; the center sample equals 1 for ``h`` and 0 for ``dh``.
    """

    h: np.ndarray
    dh: np.ndarray
    K: int

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.float64)
        self.dh = np.asarray(self.dh, dtype=np.float64)
        n = 2 * self.K + 1
        if self.K < 1:
            raise ParameterError(f"window half-length must be >= 1, got {self.K}")
        if self.h.shape != (n,) or self.dh.shape != (n,):
            raise StructuralError(f"window arrays must have length {n}")
        if not np.isclose(self.h[self.K], 1.0):
            raise StructuralError("window center sample must equal 1")

    @property
    def span(self) -> int:
        return 2 * self.K + 1


def magnitude_samples(rec: TriaxialRecord) -> np.ndarray:
    """Euclidean magnitude of the three axes, sample by sample, with no
    check: a sample whose squared sum overflows float64 reads ``inf``."""
    with np.errstate(over="ignore"):
        return np.sqrt(rec.x**2 + rec.y**2 + rec.z**2)


def overflow_message(k: int, x, y, z) -> str:
    """The text naming sample ``k``, whose finite axes ``x, y, z`` have a
    vector magnitude that overflows float64."""
    return (f"sample {k}: the vector magnitude of the finite axes "
            f"({x}, {y}, {z}) overflows float64")


def vector_magnitude(rec: TriaxialRecord) -> Signal:
    """Euclidean magnitude of the three axes, sample by sample.

    Raises ``ParameterError`` when the first infinite magnitude comes from
    finite axes whose squared sum overflows float64 (an axis above about
    1.3e154), naming that sample.
    """
    mag = magnitude_samples(rec)
    inf = np.flatnonzero(np.isinf(mag))
    if inf.size and all(np.isfinite(a[inf[0]]) for a in (rec.x, rec.y, rec.z)):
        k = inf[0]
        raise ParameterError(overflow_message(k, rec.x[k], rec.y[k], rec.z[k]))
    return Signal(mag, rec.fs)


def median_detrend(s: Signal) -> Signal:
    """Subtract a 10 s running-median baseline from the signal.

    The window holds ``order = round(10 * fs)`` samples centered on each
    output sample (``ceil(order/2)`` at or left of center, ``floor(order/2)``
    right of it) and shrinks to the in-range samples near the edges.
    Even-count medians average the two middle values, bit for bit as
    ``np.median`` does. One pass slides a sorted list of the window along
    ``x.tolist()``, so each step moves O(order) list entries.
    """
    order = int(round(10.0 * s.fs))
    if order < 1:
        raise ParameterError(f"median order must be >= 1, got {order}")
    x = s.samples
    n = x.size
    if order > n:
        raise ParameterError(
            f"signal spans {n / s.fs:g} s, shorter than the {order / s.fs:g} s "
            f"running-median detrend window ({n} < {order} samples)"
        )

    left = (order + 1) // 2 - 1  # samples strictly left of center
    right = order // 2  # samples strictly right of center
    vals = x.tolist()
    window = sorted(vals[:right])
    med = np.empty(n)
    for k in range(n):
        if k + right < n:
            bisect.insort(window, vals[k + right])
        if k > left:
            del window[bisect.bisect_left(window, vals[k - left - 1])]
        m = len(window)
        med[k] = (window[(m - 1) // 2] + window[m // 2]) / 2

    return Signal(x - med, s.fs, s.t0)


def rectify(s: Signal) -> Signal:
    """Absolute value of every sample."""
    return Signal(np.abs(s.samples), s.fs, s.t0)


def gaussian_window(K: int, sigma: float) -> Window:
    """Sampled Gaussian window and its derivative on ``[-0.5, 0.5]``.

    ``h(k) = exp(-u_k^2 / (2 sigma^2))`` with ``u_k = k/(2K) - 0.5`` for
    ``k = 0 .. 2K`` (zero-based), and ``dh`` is the analytic derivative of the
    Gaussian with respect to ``u`` sampled on the same grid.
    """
    K = int(K)
    if K < 1:
        raise ParameterError(f"window half-length must be >= 1, got {K}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    u = np.arange(2 * K + 1) / (2.0 * K) - 0.5
    h = np.exp(-(u**2) / (2.0 * sigma**2))
    dh = -u * h / sigma**2
    return Window(h=h, dh=dh, K=K)
