"""Time-frequency transforms: STFT, cepstral masking, and synchrosqueezing.

The frequency axis of every grid has ``M + 1`` bins; bin ``m`` (zero-based)
maps to ``m * fs / (2M)`` Hz. Frames advance by ``hop`` samples, so frame
``n`` (zero-based) sits at time ``t0 + n * hop / fs``. All transforms are
pure and frames are independent, so the kernel splits a signal's frames
into an even number of near-equal blocks of at most 8 frames and
computes them on the calling thread beside at most one helper thread,
each block writing its own rows of the outputs, in whatever order the
blocks finish.

Both transforms are ``numpy.fft.rfft``: the STFT of each tapered,
zero-padded frame, and the short-time cepstrum, the rfft of the even
extension of each row of ``|V|^gamma`` (a type-I DCT of the row).

The de-shape synchrosqueezing chain lives here once: ``dsst`` runs
STFT pair -> cepstral mask -> de-shaped STFT -> reassignment -> squeeze over
blocks of frames, and the pipeline calls it. Every block runs one routine
in its worker thread's workspace, and divides ``V'/V`` only at the cells
that can reach the search band (``_candidate_bounds``), unless a kept sst
or dssst grid needs every column squeezed. The full-grid stages (``stft``,
``stct``, ``istct``, ``deshape``, ``reassignment_operator``,
``synchrosqueeze``) apply the kernel's own row helpers to a whole grid; the
independent references are ``scipy.fft`` and the tests' oracle, which
rebuilds every grid of the chain from its definition with direct sums and
loops.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .signal import Signal, Window

# Grid kinds, in pipeline order.
KIND_STFT = "stft"
KIND_STCT = "stct"
KIND_ISTCT = "istct-mask"
KIND_DSSTFT = "dsstft"
KIND_SST = "sst"
KIND_DSSST = "dssst"
GRID_KINDS = (KIND_STFT, KIND_STCT, KIND_ISTCT, KIND_DSSTFT, KIND_SST, KIND_DSSST)

# Most frames per block. On one worker at M = 4096, the kernel's memory
# beyond its outputs peaks at 1.9 MB under tracemalloc, 2.2 MB with the
# dssst grid kept (5.6 and 7.0 MB with 16-frame blocks and every stage
# array held to the block's end).
_CHUNK_FRAMES = 8
# Most worker threads, the calling one included, hence most blocks computed
# at once. Each worker holds its own workspace, so the kernel's memory
# beyond its outputs grows linearly with this cap: 3.5 MB for two workers
# at M = 4096, 4.2 MB with the dssst grid kept.
_MAX_IN_FLIGHT = 2


@dataclass
class TFRGrid:
    """Time-frequency matrix with its axis metadata.

    ``values`` is ``(n_frames, fft_half + 1)``, complex for stft/dsstft and
    their squeezed forms, real for stct and the istct mask.
    """

    values: np.ndarray
    fs: float
    fft_half: int
    hop: int = 1
    kind: str = KIND_STFT
    t0: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise StructuralError("grid values must be a 2-D matrix")
        if self.values.shape[1] != self.fft_half + 1:
            raise StructuralError(
                f"grid has {self.values.shape[1]} columns, expected fft_half+1="
                f"{self.fft_half + 1}"
            )
        if self.hop < 1:
            raise ParameterError(f"hop must be >= 1, got {self.hop}")
        if not self.fs > 0:
            raise ParameterError(f"sampling rate must be positive, got {self.fs}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass
class OmegaMatrix:
    """Per-cell instantaneous-frequency estimates in zero-based bin units.

    Cells whose source magnitude did not exceed the threshold hold ``-inf``
    and are skipped by the squeezing step.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise StructuralError("operator values must be a 2-D matrix")

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


def _frames(x: np.ndarray, K: int, hop: int) -> np.ndarray:
    """Analysis frames of ``x`` zero-extended by ``K`` samples on each side.

    Returns a ``(ceil(n_samples / hop), 2K + 1)`` strided view whose row
    ``n`` holds samples ``n*hop - K .. n*hop + K``.
    """
    if hop < 1:
        raise ParameterError(f"hop must be >= 1, got {hop}")
    padded = np.concatenate([np.zeros(K), x, np.zeros(K)])
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * K + 1)[::hop]


def _check_dft_length(w: Window, fft_half: int) -> None:
    """Reject a DFT too short to hold the ``2K + 1``-sample window."""
    if 2 * fft_half < w.span:
        raise ParameterError(f"DFT length {2 * fft_half} shorter than "
                             f"window span {w.span}")


def _stft_rows(frames: np.ndarray, taper: np.ndarray, fft_half: int,
               tapered=None, out=None) -> np.ndarray:
    """The ``fft_half + 1`` rfft columns of each tapered frame, the tapered
    frames and the columns written into ``tapered`` and ``out`` when given."""
    return np.fft.rfft(np.multiply(frames, taper, out=tapered),
                       n=2 * fft_half, axis=1, out=out)


def stft(s: Signal, w: Window, fft_half: int, hop: int = 1,
         derivative: bool = False) -> TFRGrid:
    """Short-time Fourier transform with hop-1 default framing.

    Frame ``n`` covers samples ``n*hop - K .. n*hop + K`` (zero-extended past
    the ends) tapered by ``w.h`` (or ``w.dh`` when ``derivative``), then
    transformed with a ``2 * fft_half``-point DFT; only the ``fft_half + 1``
    nonnegative-frequency bins are kept. The DFT phase is referenced to the
    window start, matching a plain zero-padded FFT of each tapered frame.
    """
    fft_half = int(fft_half)
    _check_dft_length(w, fft_half)
    taper = w.dh if derivative else w.h
    frames = _frames(s.samples, w.K, hop)
    return TFRGrid(_stft_rows(frames, taper, fft_half), fs=s.fs,
                   fft_half=fft_half, hop=hop, kind=KIND_STFT, t0=s.t0)


def _stct_rows(stft_mag: np.ndarray, gamma: float, out=None, extended=None,
               spectrum=None) -> np.ndarray:
    """Cepstral rows of one block of STFT magnitudes (already nonnegative).

    Each row ``|V|^gamma`` holds bins ``0..M`` of a real, even ``2M``-point
    spectrum; its DFT is the rfft of the row's even extension (bins
    ``M - 1 .. 1`` mirrored after bin ``M``), whose real part is the
    cepstrum, clamped at zero and written into ``out`` when given. The
    extension and its DFT go into the contiguous ``(n_rows, 2M)`` float
    array ``extended`` and the ``(n_rows, M + 1)`` complex array
    ``spectrum`` when given. ``out`` may be ``stft_mag``, which is no
    longer read then.
    """
    n_rows, width = stft_mag.shape
    M = width - 1
    out = np.empty((n_rows, width)) if out is None else out
    if extended is None:
        extended = np.empty((n_rows, 2 * M))
    np.power(stft_mag, gamma, out=extended[:, :width])
    for row in extended:  # per row, so numpy sees no overlap and copies nothing
        row[width:] = row[M - 1 : 0 : -1]
    spectrum = np.fft.rfft(extended, axis=1, out=spectrum)
    np.maximum(spectrum.real, 0.0, out=out)
    return out


def stct(v: TFRGrid, gamma: float) -> TFRGrid:
    """Short-time cepstral transform of an STFT grid.

    Per frame, a soft-log power ``|V|^gamma`` is rebuilt across the full
    ``2M``-point spectrum by conjugate symmetry (real input signal) and
    Fourier-transformed; the real part is kept on the first ``M + 1``
    quefrency columns with negatives clamped to zero.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    vals = np.empty(v.values.shape)
    for rows in _frame_blocks(v.n_frames):
        _stct_rows(np.abs(v.values[rows]), gamma, out=vals[rows])
    return TFRGrid(vals, fs=v.fs, fft_half=v.fft_half, hop=v.hop,
                   kind=KIND_STCT, t0=v.t0)


def _istct_interp_table(fft_half: int):
    """Precomputed gather table mapping quefrency columns to frequency bins.

    For frequency bin ``m`` the mask evaluates the cepstral row at abscissa
    ``m / (2M)`` by linear interpolation over the nodes ``1/j`` (j = 1..M),
    where node ``1/j`` carries quefrency column ``j``. Queries below ``1/M``
    (bins 0 and 1) evaluate to zero.
    """
    M = fft_half
    x = np.arange(M + 1) / (2.0 * M)
    nodes = 1.0 / np.arange(M, 0, -1)  # ascending: 1/M .. 1
    idx = np.searchsorted(nodes, x, side="right") - 1
    valid = x >= nodes[0]
    idx = np.clip(idx, 0, M - 2)
    span = nodes[idx + 1] - nodes[idx]
    weight = np.where(valid, (x - nodes[idx]) / span, 0.0)
    col_lo = M - idx  # column at nodes[idx]; nodes[idx + 1] has col_lo - 1
    return valid, col_lo, weight


def _istct_rows(ceps: np.ndarray, table, out=None) -> np.ndarray:
    """The de-shape mask of cepstral rows, by the ``_istct_interp_table``
    of their width, written into ``out`` when given."""
    valid, col_lo, weight = table
    # np.take releases the GIL while it gathers; fancy indexing does not.
    u = np.multiply(np.take(ceps, col_lo, axis=1), 1.0 - weight, out=out)
    upper = np.take(ceps, col_lo - 1, axis=1)
    upper *= weight
    u += upper
    u[:, ~valid] = 0.0
    return u


def _istct_cells(ceps: np.ndarray, table, cells: np.ndarray) -> np.ndarray:
    """``_istct_rows(ceps, table).ravel()[cells]``, evaluated only at the
    given row-major flat cell indices."""
    valid, col_lo, weight = table
    cols = cells % valid.size
    at = col_lo[cols]
    at += cells
    at -= cols  # flat index of (row, col_lo[col])
    w = weight[cols]
    invalid = ~valid[cols]
    del cols
    flat = ceps.ravel()
    u = flat[at]
    u *= 1.0 - w
    at -= 1  # the upper node's column
    upper = flat[at]
    upper *= w
    u += upper
    u[invalid] = 0.0
    return u


def istct(c: TFRGrid) -> TFRGrid:
    """Resample quefrency rows onto the frequency axis (de-shape mask).

    Exploits the reciprocal relation between period and frequency: the value
    at frequency bin ``m`` is the cepstrum at the matching period, linearly
    interpolated between the known quefrency nodes. The result is a
    nonnegative mask that retains the fundamental frequency and its divisors.
    """
    if c.fft_half < 2:
        raise StructuralError("istct needs at least 3 quefrency columns")
    vals = _istct_rows(c.values, _istct_interp_table(c.fft_half))
    return TFRGrid(vals, fs=c.fs, fft_half=c.fft_half, hop=c.hop,
                   kind=KIND_ISTCT, t0=c.t0)


def deshape(v: TFRGrid, u: TFRGrid) -> TFRGrid:
    """Pointwise product of the STFT with the de-shape mask."""
    if v.values.shape != u.values.shape:
        raise StructuralError(
            f"shape mismatch: stft {v.values.shape} vs mask {u.values.shape}"
        )
    return TFRGrid(v.values * u.values, fs=v.fs, fft_half=v.fft_half,
                   hop=v.hop, kind=KIND_DSSTFT, t0=v.t0)


def _omega_scale(fft_half: int, window_half: int) -> float:
    """Bins per unit of ``Im(V'/V)``: ``2M / (2 pi 2K)``, because
    ``gaussian_window`` spaces its samples ``1/(2K)`` apart."""
    return 2.0 * fft_half / (2.0 * np.pi * (2 * window_half))


def _omega_rows(v_rows: np.ndarray, vd_rows: np.ndarray, vmag: np.ndarray,
                upsilon: float, scale: float, out=None) -> np.ndarray:
    """Reassignment rule of one block, written into ``out`` when given;
    ``vmag`` is ``|v_rows|`` and ``scale`` is ``_omega_scale``'s.

    ``V'/V`` is divided in place into ``vd_rows`` where ``vmag`` exceeds
    ``upsilon``; the other cells keep ``V'`` and their rule is ``-inf``.
    """
    mask = vmag > upsilon
    ratio = np.divide(vd_rows, v_rows, out=vd_rows, where=mask)
    omega = np.multiply(ratio.imag, scale, out=out)
    np.subtract(np.arange(v_rows.shape[1], dtype=np.float64), omega, out=omega)
    omega[~mask] = -np.inf
    return omega


def reassignment_operator(v: TFRGrid, vd: TFRGrid, upsilon: float,
                          window_half: int) -> OmegaMatrix:
    """Frequency reassignment rule from the window / derivative STFT pair.

    Where ``|V| > upsilon`` the cell holds the local instantaneous-frequency
    estimate in zero-based bin units: the cell's own bin index plus the
    phase-derived correction ``-Im(V'/V)`` scaled by ``2M / (2 pi 2K)``.
    Cells at or below the threshold hold ``-inf`` and carry no energy.
    """
    if v.values.shape != vd.values.shape:
        raise StructuralError(
            f"shape mismatch: V {v.values.shape} vs V' {vd.values.shape}"
        )
    if not upsilon > 0:
        raise ParameterError(f"upsilon must be positive, got {upsilon}")
    omega = _omega_rows(v.values, vd.values.astype(np.complex128), np.abs(v.values),
                        upsilon, _omega_scale(v.fft_half, window_half))
    return OmegaMatrix(omega)


def _scatter(flat: np.ndarray, weights: np.ndarray, size: int,
             pairs=None) -> np.ndarray:
    """``size`` bins, bin ``j`` the sum of the ``weights`` whose ``flat``
    index is ``j``, added in cell order; index ``size`` is a dump bin.

    ``np.bincount`` does the sums. For complex weights it makes one pass
    over the interleaved parts: bin ``2j`` sums the real parts of bin ``j``'s
    cells and bin ``2j + 1`` their imaginary parts, indexed by ``pairs``.
    """
    if not np.iscomplexobj(weights):
        return np.bincount(flat, weights=weights, minlength=size + 1)[:size]
    pairs = np.empty((flat.size, 2), np.int64) if pairs is None else pairs
    np.multiply(flat, 2, out=pairs[:, 0])
    del flat  # the caller may hold no other reference
    np.add(pairs[:, 0], 1, out=pairs[:, 1])
    return np.bincount(pairs.ravel(), weights=weights.view(np.float64),
                       minlength=2 * size + 2).view(np.complex128)[:size]


def _flat_targets(omega_rows: np.ndarray, out=None) -> np.ndarray:
    """Each cell's rounded target as a row-major flat index into its rows;
    ``-inf``, NaN and off-grid targets go to the dump bin past the end. The
    indices go into ``out``, int64 of ``omega_rows``' shape, when given."""
    n_rows, n_cols = omega_rows.shape
    size = n_rows * n_cols
    flat = (np.empty(size, np.int64) if out is None else out).reshape(-1)
    targets = np.rint(omega_rows, out=flat.view(np.float64).reshape(n_rows, n_cols))
    keep = (targets >= 0) & (targets < n_cols)  # false at -inf and nan
    targets += np.arange(0, size, n_cols, dtype=np.float64)[:, None]
    targets[~keep] = size
    del keep
    flat[:] = targets.reshape(-1)  # in place: 1-D, so numpy copies nothing
    return flat


def _squeeze_rows(src_rows: np.ndarray, omega_rows: np.ndarray,
                  targets=None, pairs=None) -> np.ndarray:
    """Every column of the squeezed rows: each cell of ``src`` is added, as
    it is, to its rounded target column (``targets``: ``_flat_targets``'
    ``out``; ``pairs``: ``_scatter``'s).

    This is a block's memory peak, and two blocks reach it at about the same
    time, so the cell-sized temporaries are updated in place and dropped
    once used.
    """
    return _scatter(_flat_targets(omega_rows, targets), src_rows.ravel(),
                    omega_rows.size, pairs).reshape(omega_rows.shape)


def synchrosqueeze(src: TFRGrid, omega: OmegaMatrix) -> TFRGrid:
    """Sharpen a TFR by moving each cell's value to its reassigned bin.

    The target column is ``round(omega)`` (zero-based); out-of-range targets
    are discarded and ``-inf`` cells contribute nothing. The values of
    ``src`` are summed as they are, complex or real.
    """
    if src.values.shape != omega.values.shape:
        raise StructuralError(
            f"shape mismatch: src {src.values.shape} vs omega {omega.values.shape}"
        )
    out = _squeeze_rows(src.values, omega.values)
    kind = KIND_DSSST if src.kind == KIND_DSSTFT else KIND_SST
    return TFRGrid(out, fs=src.fs, fft_half=src.fft_half, hop=src.hop,
                   kind=kind, t0=src.t0)


# Relative margin of the candidate bound (``_candidate_bounds``). It covers
# the rounding of V'/V, of its imaginary part times the scale, of the
# target, of |V| and |V'| (hypot) and of |V| times the bound: a few ulps,
# far below 1e-6.
_BOUND_MARGIN = 1e-6


def _candidate_bounds(band, n_cols: int, scale: float) -> np.ndarray:
    """Per column ``c``, the least ``|V'| / |V|`` of a cell whose rounded
    target ``rint(c - Im(V'/V) * scale)`` can land in ``band = (lo, hi)``.

    The target lands there only if ``|Im(V'/V)| * scale >= d(c) - 0.5``,
    where ``d(c)`` is the column's distance in bins from ``[lo, hi]``, and
    ``|Im(V'/V)| <= |V'| / |V|``. So the bound is ``max(d(c) - 0.5, 0) /
    scale``, lowered by ``_BOUND_MARGIN`` to absorb rounding.
    """
    lo, hi = band
    cols = np.arange(n_cols, dtype=np.float64)
    d = np.maximum(np.maximum(lo - cols, cols - hi), 0.0)
    return np.maximum(d - 0.5, 0.0) / scale * (1.0 - _BOUND_MARGIN)


class _BandWorkspace:
    """One worker's buffers, allocated once per ``dsst`` call and sized for
    ``rows`` frames: the tapered frames, ``V``, ``V'``, ``|V|``, the
    candidate mask, and ``|V'|`` and ``|V| * thr`` of one row. Each buffer
    takes later stages once its own is dead (``_pair_rows``).
    """

    def __init__(self, rows: int, span: int, fft_half: int):
        width = fft_half + 1
        self.tapered = np.empty((rows, span))
        self.v = np.empty((rows, width), dtype=np.complex128)
        self.vd = np.empty((rows, width), dtype=np.complex128)
        self.vmag = np.empty((rows, width))
        self.cand = np.empty((rows, width), dtype=bool)
        self.row_mags = np.empty((2, width))


def _scratch(buf: np.ndarray, dtype, rows: int, cols: int) -> np.ndarray:
    """``(rows, cols)`` contiguous ``dtype`` items over the start of ``buf``."""
    return buf.view(dtype).reshape(-1)[: rows * cols].reshape(rows, cols)


def _band_cells(v: np.ndarray, vd: np.ndarray, vmag: np.ndarray,
                upsilon: float, band, scale: float, thr: np.ndarray,
                ws: _BandWorkspace):
    """The cells of one block whose rounded target lands in ``band``: their
    row-major flat indices, their ``V`` and their flat indices into the
    band's rows. ``V'/V`` and the target are computed only at the candidate
    cells, ``|V'| >= |V| * thr[c]`` (``_candidate_bounds``) and ``|V| >
    upsilon``, in row-major order, so each band column sums the same cells
    in the same order as a squeeze of the whole grid."""
    n, n_cols = v.shape
    lo, hi = band
    vd_mag, bound = ws.row_mags
    cand = ws.cand[:n]
    for row in range(n):  # a row at a time: no block-sized |V'|
        np.abs(vd[row], out=vd_mag)
        np.multiply(vmag[row], thr, out=bound)
        np.greater_equal(vd_mag, bound, out=cand[row])
    cand &= vmag > upsilon
    cells = np.flatnonzero(cand)
    weights = v.ravel()[cells]
    quotient = vd.ravel()[cells]
    quotient /= weights
    targets = np.rint(cells % n_cols - quotient.imag * scale)
    del quotient
    inside = (targets >= lo) & (targets <= hi)
    cells, weights = cells[inside], weights[inside]
    flat = cells // n_cols * (hi - lo + 1) + (targets[inside].astype(np.int64) - lo)
    return cells, weights, flat


def _pair_rows(v: np.ndarray, vd: np.ndarray, gamma: float, upsilon: float,
               band, scale: float, table, thr: np.ndarray, grids: dict,
               band_rows: np.ndarray, ws: _BandWorkspace) -> None:
    """Fill one block's rows of ``band_mag`` (``band_rows``) and of each
    kept grid (``grids``: kind -> rows) from its STFT pair, the first rows
    of ``ws.v`` and ``ws.vd``.

    ``|V|`` goes into the kept stft rows and the cepstrum into the kept stct
    rows; a stage that is not kept goes into ``ws.vmag``. Once ``V'/V`` is
    taken, ``V'``'s buffer holds the even extension of ``|V|^gamma`` and
    ``V``'s its spectrum unless ``V`` is read later. A full squeeze's rule
    goes into the kept dssst, else sst, rows, and its targets and index
    pairs into ``ws.vmag`` and ``V'``'s buffer once the mask is taken.
    """
    n, width = v.shape
    vmag = np.abs(v, out=grids.get(KIND_STFT, ws.vmag[:n]))
    rule = grids.get(KIND_DSSST, grids.get(KIND_SST))
    if KIND_DSSST not in grids:
        cells, weights, flat = _band_cells(v, vd, vmag, upsilon, band, scale,
                                           thr, ws)
    if rule is not None:
        _omega_rows(v, vd, vmag, upsilon, scale, out=rule)
    deshaped = KIND_DSSTFT in grids or KIND_DSSST in grids
    ceps = _stct_rows(vmag, gamma, out=grids.get(KIND_STCT, ws.vmag[:n]),
                      extended=_scratch(ws.vd, np.float64, n, 2 * width - 2),
                      spectrum=None if deshaped or rule is not None else v)
    if KIND_DSSST not in grids:
        weights *= _istct_cells(ceps, table, cells)
    if deshaped or KIND_ISTCT in grids:
        mask = _istct_rows(ceps, table, out=grids.get(KIND_ISTCT))
    scratch = (_scratch(ws.vmag, np.int64, n, width),
               _scratch(ws.vd, np.int64, n * width, 2))
    if KIND_SST in grids:
        np.abs(_squeeze_rows(v, rule, *scratch), out=grids[KIND_SST])
    if deshaped:
        ds = np.multiply(v, mask, out=v)
        del mask
        if KIND_DSSTFT in grids:
            np.abs(ds, out=grids[KIND_DSSTFT])
    if KIND_DSSST in grids:
        dssst = np.abs(_squeeze_rows(ds, rule, *scratch), out=grids[KIND_DSSST])
        band_rows[:] = dssst[:, band[0] : band[1] + 1]
    else:
        np.abs(_scatter(flat, weights, band_rows.size).reshape(band_rows.shape),
               out=band_rows)


def _band_rows(frames: np.ndarray, w: Window, fft_half: int, gamma: float,
               upsilon: float, band, scale: float, table, thr: np.ndarray,
               grids: dict, band_rows: np.ndarray, ws: _BandWorkspace) -> None:
    """The kernel routine: ``_pair_rows`` of one block's analysis
    ``frames``, every stage in the worker's workspace ``ws``."""
    n = frames.shape[0]
    v = _stft_rows(frames, w.h, fft_half, ws.tapered[:n], ws.v[:n])
    vd = _stft_rows(frames, w.dh, fft_half, ws.tapered[:n], ws.vd[:n])
    _pair_rows(v, vd, gamma, upsilon, band, scale, table, thr, grids, band_rows, ws)


def _pool_size() -> int:
    """Blocks the kernel computes at once: one per usable core, capped."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(_MAX_IN_FLIGHT, cores)


def _frame_blocks(n: int) -> list[slice]:
    """Split ``n`` frames into contiguous blocks of near-equal size.

    The block count is ``ceil(n / _CHUNK_FRAMES)`` rounded up to a multiple
    of ``_MAX_IN_FLIGHT`` (but at most ``n``), so no block exceeds
    ``_CHUNK_FRAMES`` frames and a short signal still keeps every worker
    busy. Sizes differ by at most one frame. The layout depends on ``n``
    only, not on the usable cores.
    """
    k = -(-n // _CHUNK_FRAMES)
    k = min(n, -(-k // _MAX_IN_FLIGHT) * _MAX_IN_FLIGHT)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def dsst(s: Signal, w: Window, fft_half: int, hop: int, gamma: float,
         upsilon: float, band, kinds=(), out=None):
    """De-shape synchrosqueezing chain over balanced blocks of frames.

    Returns ``(band_mag, grids)``. ``band_mag`` is ``(n_frames, hi - lo + 1)``:
    the squeezed magnitudes in the inclusive column range ``band = (lo, hi)``,
    equal to those columns of a full squeeze. ``grids`` maps each grid kind
    named in ``kinds`` to its full ``(n_frames, fft_half + 1)`` magnitudes.
    Each kept grid is a new array unless ``out``, a mapping from kept kinds
    to float64 arrays of exactly that shape, gives one; the kernel fills it
    in place, with the same rows as a new array. A kind in ``out`` that is
    not kept, an array of another shape or dtype, or two arrays that may
    share memory raise ``StructuralError``.

    The frames are split by ``_frame_blocks``: an even number of contiguous
    blocks of near-equal size, at most ``_CHUNK_FRAMES`` frames each, so the
    memory beyond the outputs does not grow with the bout, and a bout shorter
    than two full blocks still gives each worker half of it.
    Per block, each stage runs once: STFT pair ``V``, ``V'`` -> reassignment
    rule from ``V'/V`` -> cepstrum of ``|V|^gamma`` -> mask -> ``W = V *
    mask`` squeezed, by ``_band_rows`` in its worker's ``_BandWorkspace``,
    allocated once per call (about 1.5 MB at ``M = 4096``). Each kept grid's
    rows are written from the workspace's stages before they are
    overwritten. Only a kept sst or dssst grid squeezes every column; with
    dssst kept the band is sliced from its rows, otherwise ``V'/V`` is
    divided only at the cells whose target can round into the band
    (``_candidate_bounds``).

    Blocks run on ``_pool_size()`` threads, one core each: the calling
    thread and ``_pool_size() - 1`` helpers, so one usable core starts no
    thread, and two cores add one thread's malloc arena, not two.
    Each thread takes the next block until none is left, so the pool holds
    one task per helper; a future per block would cost about 2 KB per
    block (15 MB on a 10-min hop-1 bout). Each block writes its own rows of
    the outputs, so the blocks may finish in any order and every row is
    bitwise equal to a serial computation. An error in a block stops every
    thread from taking further blocks and is raised here, after the helpers
    have stopped.
    """
    _check_dft_length(w, fft_half)
    frames = _frames(s.samples, w.K, hop)
    n = frames.shape[0]
    band_mag = np.empty((n, band[1] - band[0] + 1))
    shape = (n, fft_half + 1)
    out = {} if out is None else out
    for kind, grid in out.items():
        if kind not in kinds or grid.shape != shape or grid.dtype != np.float64:
            raise StructuralError(
                f"dsst out[{kind!r}] must be a kept kind's float64 array "
                f"of shape {shape}")
    if any(np.may_share_memory(a, b)
           for a, b in itertools.combinations(out.values(), 2)):
        raise StructuralError("dsst out arrays must not share memory")
    grids = {kind: out[kind] if kind in out else np.empty(shape)
             for kind in GRID_KINDS if kind in kinds}
    # One of each for every block.
    table = _istct_interp_table(fft_half)
    scale = _omega_scale(fft_half, w.K)
    thr = _candidate_bounds(band, fft_half + 1, scale)

    layout = _frame_blocks(n)
    rows_max = max((rows.stop - rows.start for rows in layout), default=0)
    blocks = iter(layout)
    take = threading.Lock()

    def worker():
        ws = _BandWorkspace(rows_max, w.span, fft_half)
        while True:
            with take:
                rows = next(blocks, None)
            if rows is None:
                return
            try:
                _band_rows(frames[rows], w, fft_half, gamma, upsilon, band,
                           scale, table, thr,
                           {kind: grid[rows] for kind, grid in grids.items()},
                           band_mag[rows], ws)
            except BaseException:
                with take:
                    for _ in blocks:  # no thread starts another block
                        pass
                raise

    workers = _pool_size()
    # Threads start on submit only, so one worker starts none.
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(worker) for _ in range(workers - 1)]
        worker()
        # Reading the results re-raises a failed helper's error.
        for helper in helpers:
            helper.result()
    return band_mag, grids
