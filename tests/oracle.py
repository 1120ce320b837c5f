"""A slow reference for the de-shape synchrosqueezing chain, built from the
definitions with direct sums and loops: no FFT, and none of ``tfr``'s row
helpers. It is meant for small grids (M up to a few hundred, a few hundred
frames at most).

Stage by stage, on ``M + 1`` bins:

- ``V`` and ``V'``: direct sums of each zero-extended frame times ``w.h``
  and ``w.dh`` against ``exp(-i pi k m / M)``, at any hop;
- the cepstrum: the type-I DCT of each row of ``|V|^gamma``, as a sum over
  a cosine matrix, clamped at zero;
- the mask at bin ``m``: the cepstral row read at ``m / (2M)`` by linear
  interpolation over the nodes ``1/j`` (node ``1/j`` carries column ``j``),
  and zero below ``1/M``;
- the rule: ``m - Im(V'/V) * 2M / (2 pi 2K)`` where ``|V| > upsilon``, else
  ``-inf``. ``gaussian_window`` spaces its samples ``1/(2K)`` apart, so
  ``V'`` is ``2K`` times the STFT with the window's derivative per sample;
- the squeeze: each cell, in row-major order, added to bin ``rint(rule)``
  of its frame when that bin lies in ``[0, M]``.
"""

import numpy as np

def stft_direct_sum(x, taper, K, M, hop=1):
    """Direct summation of the STFT definition.

    Row ``n`` sums samples ``n*hop - K .. n*hop + K`` of ``x`` (zero-extended
    past the ends) times ``taper`` against ``exp(-i pi k m / M)`` for bin
    ``m``; there are ``ceil(len(x) / hop)`` rows.
    """
    padded = np.concatenate([np.zeros(K), x, np.zeros(K)])
    segs = np.lib.stride_tricks.sliding_window_view(padded, 2 * K + 1)[::hop]
    kernel = np.exp(-1j * np.pi
                    * np.outer(np.arange(2 * K + 1), np.arange(M + 1)) / M)
    return (segs * taper) @ kernel


def cepstrum(mag, gamma):
    """Type-I DCT of each row of ``mag ** gamma``, clamped at zero:
    ``c[q] = p[0] + (-1)^q p[M] + 2 sum_{m=1}^{M-1} p[m] cos(pi q m / M)``."""
    M = mag.shape[1] - 1
    m = np.arange(M + 1)
    weights = np.full(M + 1, 2.0)
    weights[[0, M]] = 1.0
    cosines = weights[:, None] * np.cos(np.pi * np.outer(m, m) / M)
    return np.maximum(mag**gamma @ cosines, 0.0)


def mask(ceps):
    """The de-shape mask: row ``n`` at bin ``m`` is ``np.interp(m / (2M),
    [1/M .. 1/1], [ceps[n, M] .. ceps[n, 1]])``, and zero below ``1/M``."""
    M = ceps.shape[1] - 1
    queries = np.arange(M + 1) / (2.0 * M)
    nodes = 1.0 / np.arange(M, 0, -1)
    u = np.array([np.interp(queries, nodes, row[M:0:-1]) for row in ceps])
    u[:, queries < 1.0 / M] = 0.0
    return u


def omega_scale(M, K):
    """Bins per unit of ``Im(V'/V)``: ``2M / (2 pi 2K)``."""
    return 2.0 * M / (2.0 * np.pi * (2 * K))


def rule(v, vd, K, upsilon):
    """Reassigned bin of every cell: ``m - Im(V'/V) * omega_scale`` where
    ``|V| > upsilon``, else ``-inf``."""
    M = v.shape[1] - 1
    scale = omega_scale(M, K)
    loud = np.abs(v) > upsilon
    ratio = np.divide(vd, v, out=np.zeros(v.shape, complex), where=loud)
    return np.where(loud, np.arange(M + 1.0) - ratio.imag * scale, -np.inf)


def squeeze(src, omega):
    """Each cell of ``src``, frame by frame and bin by bin, added to bin
    ``rint(omega)`` of its frame when that bin lies in ``[0, M]``."""
    n_bins = src.shape[1]
    out = np.zeros(src.shape, src.dtype)
    zero = src.dtype.type(0).item()
    for row, values, targets in zip(out, src.tolist(), np.rint(omega).tolist()):
        sums = [zero] * n_bins
        for value, target in zip(values, targets):
            if 0 <= target < n_bins:  # false at -inf and nan
                sums[int(target)] += value
        row[:] = sums
    return out


def pair_chain(v, vd, K, gamma, upsilon):
    """``(grids, omega)`` from a given STFT pair ``(V, V')``: the magnitudes
    of every grid kind, and the rule."""
    ceps = cepstrum(np.abs(v), gamma)
    u = mask(ceps)
    deshaped = v * u
    omega = rule(v, vd, K, upsilon)
    grids = {"stft": np.abs(v), "stct": ceps, "istct-mask": u,
             "dsstft": np.abs(deshaped), "sst": np.abs(squeeze(v, omega)),
             "dssst": np.abs(squeeze(deshaped, omega))}
    return grids, omega


def chain(x, w, M, hop, gamma, upsilon):
    """``pair_chain`` of the direct-sum STFT pair of the samples ``x`` under
    the window ``w`` (its ``h``, ``dh`` and ``K``)."""
    v = stft_direct_sum(x, w.h, w.K, M, hop)
    vd = stft_direct_sum(x, w.dh, w.K, M, hop)
    return pair_chain(v, vd, w.K, gamma, upsilon)
