"""File ingestion and export: CSV loaders, trace/summary writers, TFR dumps."""

from __future__ import annotations

import csv
import json
import logging
import os
import warnings
from pathlib import Path

import numpy as np

from .analysis import BAStats, BoutInterval, validate_bouts
from .errors import DataFormatError, ParameterError
from .ridge import CadenceTrace
from .signal import TriaxialRecord
from .tfr import TFRGrid

logger = logging.getLogger(__name__)

UNIFORMITY_TOL = 0.01  # sampling intervals may deviate 1% from their median
PGM_QUANTILE = 0.99

_FLOAT_FMT = "%.12g"  # every float written as text, also by np.savetxt


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _read_header(path: Path, reader, headers) -> list:
    """The next CSV record of ``reader``, lowercased and stripped, which must
    equal one of ``headers``."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: file is empty") from None
    names = [h.strip().lower() for h in header]
    if names not in headers:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise DataFormatError(
            f"{path}: expected header {expected}, got {','.join(names)!r}"
        )
    return names


def _read_rows(path: Path, headers, convert) -> tuple[list, list, list]:
    """Header, line numbers and converted data rows of a CSV file.

    The header, lowercased and stripped, must equal one of ``headers``.
    Each non-blank line must have the header's width and is passed to
    ``convert``; a width mismatch or a ``ValueError`` from ``convert``
    raises ``DataFormatError`` naming ``path:line``. Returns
    ``(names, linenos, values)``.
    """
    linenos, values = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        names = _read_header(path, reader, headers)
        width = len(names)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            try:
                values.append(convert(row))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value in {row!r}"
                ) from None
            linenos.append(lineno)
    return names, linenos, values


def _parse_floats(path: Path, headers) -> tuple[list, np.ndarray | None]:
    """Header and float rows of a numeric CSV, parsed in one vectorized pass.

    The rows are ``None`` unless they all parse, there is at least one, each
    has the header's width and every value is finite; the caller then
    re-reads the file with ``_read_rows``, which names the offending line.
    ``np.loadtxt`` converts with the C routine behind ``float()``, so it
    gives the same doubles, but it rejects some spellings ``float()`` takes
    (``1_0``, quoted fields, whitespace-only lines): those files take the
    slow path too.
    """
    with path.open(newline="") as fh:
        names = _read_header(path, csv.reader(fh), headers)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return names, None
    if data.shape[0] and data.shape[1] == len(names) and np.isfinite(data).all():
        return names, data
    return names, None


def load_triaxial_csv(path, fs_hint: float | None = None,
                      location: str = "other") -> TriaxialRecord:
    """Load a ``t,x,y,z`` (or ``x,y,z`` plus ``fs_hint``) CSV file.

    With a time column the sampling rate is the reciprocal of the median
    interval, and every interval must stay within 1% of that median. Every
    value must be finite.

    The axes are contiguous copies, so the parsed ``(rows, columns)``
    matrix, time column included, is freed on return.
    """
    path = Path(path)
    headers = (["t", "x", "y", "z"], ["x", "y", "z"])
    names, data = _parse_floats(path, headers)
    if data is None:
        names, linenos, values = _read_rows(
            path, headers, lambda row: [float(v) for v in row])
    has_time = names[0] == "t"
    if not has_time and fs_hint is None:
        raise DataFormatError(
            f"{path}: no time column; a sampling rate is required"
        )
    if data is None:
        if not values:
            raise DataFormatError(f"{path}: no data rows")
        data = np.asarray(values)
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataFormatError(
                f"{path}:{linenos[i]}: non-finite value in {values[i]!r}")
    if has_time:
        t = data[:, 0]
        dt = np.diff(t)
        if dt.size == 0:
            if fs_hint is None:
                raise DataFormatError(
                    f"{path}: single row; a sampling rate is required"
                )
            fs = fs_hint
        else:
            med = float(np.median(dt))
            if med <= 0:
                raise DataFormatError(f"{path}: time column is not increasing")
            if np.any(np.abs(dt - med) > UNIFORMITY_TOL * med):
                raise DataFormatError(
                    f"{path}: sampling is non-uniform beyond "
                    f"{UNIFORMITY_TOL:.0%} of the median interval"
                )
            fs = 1.0 / med
        xyz = data[:, 1:]
    else:
        fs = fs_hint
        xyz = data
    x, y, z = (xyz[:, i].copy() for i in range(3))
    return TriaxialRecord(x=x, y=y, z=z, fs=fs, location=location)


def write_triaxial_csv(path, rec: TriaxialRecord):
    path = Path(path)
    t = np.arange(len(rec)) / rec.fs
    with path.open("w", newline="") as fh:
        fh.write("t,x,y,z\n")
        np.savetxt(fh, np.column_stack([t, rec.x, rec.y, rec.z]),
                   fmt=_FLOAT_FMT, delimiter=",")


def load_labels_csv(path) -> list[BoutInterval]:
    """Load ``start_s,end_s,label`` rows into a validated, sorted bout list."""
    path = Path(path)
    _, linenos, values = _read_rows(
        path, (["start_s", "end_s", "label"],),
        lambda row: (float(row[0]), float(row[1]), int(row[2])))
    bouts = []
    for lineno, (start, end, label) in zip(linenos, values):
        try:
            bouts.append(BoutInterval(start, end, label))
        except ParameterError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    try:
        return validate_bouts(bouts)
    except ParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_labels_csv(path, bouts):
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("start_s,end_s,label\n")
        for b in bouts:
            fh.write(f"{_fmt(b.start_s)},{_fmt(b.end_s)},{b.label}\n")


def check_bout_spans(bouts, window_span_s: float) -> list[str]:
    """Warnings for bouts shorter than the analysis window span."""
    warnings = []
    for b in bouts:
        span = b.end_s - b.start_s
        if span < window_span_s:
            warnings.append(
                f"bout [{_fmt(b.start_s)}, {_fmt(b.end_s)}] spans {_fmt(span)} s, "
                f"shorter than the {_fmt(window_span_s)} s analysis window"
            )
    return warnings


def write_trace_csv(path, trace: CadenceTrace, labels: np.ndarray):
    """Write a cadence trace with its per-frame bout label."""
    path = Path(path)
    labels = np.asarray(labels)
    if labels.size != len(trace):
        raise ParameterError("labels must have one entry per trace frame")
    with path.open("w", newline="") as fh:
        fh.write("time_s,if_hz,cadence_hz,bout_label\n")
        np.savetxt(fh, np.column_stack([trace.times, trace.if_hz,
                                        trace.cadence_hz, labels]),
                   fmt=[_FLOAT_FMT] * 3 + ["%d"], delimiter=",")


def load_trace_csv(path) -> tuple[CadenceTrace, np.ndarray]:
    """Read back a cadence trace CSV; returns the trace and its labels.

    Every value must be finite and the times strictly increasing; the
    first row that breaks either raises ``DataFormatError`` naming
    ``path:line``.
    """
    path = Path(path)
    _, linenos, values = _read_rows(
        path, (["time_s", "if_hz", "cadence_hz", "bout_label"],),
        lambda row: (float(row[0]), float(row[1]), float(row[2]), int(row[3])))
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    times, if_hz, cadence, labels = (np.asarray(col) for col in zip(*values))
    finite = np.isfinite(times) & np.isfinite(if_hz) & np.isfinite(cadence)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataFormatError(
            f"{path}:{linenos[i]}: non-finite value in {values[i]!r}")
    if np.any(np.diff(times) <= 0):
        i = int(np.argmax(np.diff(times) <= 0)) + 1
        raise DataFormatError(
            f"{path}:{linenos[i]}: time {values[i][0]!r} does not follow "
            f"{values[i - 1][0]!r}; trace times must be strictly increasing")
    dts = np.diff(times)
    frame_dt = float(np.median(dts)) if dts.size else 1.0
    trace = CadenceTrace(times=times, if_hz=if_hz, cadence_hz=cadence,
                         frame_dt=frame_dt)
    return trace, labels


def write_summary_csv(path, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("location,label,activity,mean_cadence_hz,sd_cadence_hz,"
                 "n_frames,duration_s\n")
        for r in rows:
            fh.write(f"{r.location},{r.label},{r.label_name},"
                     f"{_fmt(r.mean_cadence_hz)},{_fmt(r.sd_cadence_hz)},"
                     f"{r.n_frames},{_fmt(r.duration_s)}\n")


def write_bland_altman_csv(path, stats: BAStats, with_ci: bool = False):
    path = Path(path)
    with path.open("w", newline="") as fh:
        header = "mean_diff,sd_diff,loa_low,loa_high,n"
        row = (f"{_fmt(stats.mean_diff)},{_fmt(stats.sd_diff)},"
               f"{_fmt(stats.loa_low)},{_fmt(stats.loa_high)},{stats.n}")
        if with_ci:
            lo, hi = stats.mean_ci()
            margin = stats.loa_ci_margin()
            header += ",mean_ci_low,mean_ci_high,loa_ci_margin"
            row += f",{_fmt(lo)},{_fmt(hi)},{_fmt(margin)}"
        fh.write(header + "\n" + row + "\n")


TFR_FORMATS = ("csv", "pgm", "f64le")


def check_tfr_format(fmt: str):
    if fmt not in TFR_FORMATS:
        raise ParameterError(f"unknown TFR format {fmt!r}; expected {TFR_FORMATS}")


# Bytes of one row chunk of float64 magnitudes: an export holds one chunk
# at a time (plus the uint8 image for a PGM), whatever the grid's size.
# 8 rows at 4097 bins; the export phase sets a multi-bout run's peak.
_EXPORT_CHUNK_BYTES = 256 << 10


def _magnitude_chunks(values: np.ndarray):
    """``(first_row, |rows|)`` over successive row chunks of ``values``, the
    magnitudes as little-endian float64 in one reused buffer."""
    n_rows, n_bins = values.shape
    step = max(1, _EXPORT_CHUNK_BYTES // (8 * n_bins))
    buf = np.empty((min(step, n_rows), n_bins), dtype="<f8")
    for i in range(0, n_rows, step):
        chunk = buf[: min(step, n_rows - i)]
        np.abs(values[i : i + step], out=chunk)
        yield i, chunk


def _clip_level(values: np.ndarray) -> np.float64:
    """``np.quantile(np.abs(values), PGM_QUANTILE)``, bitwise, one row chunk
    at a time.

    numpy's "linear" quantile interpolates between the order statistics
    ``k = floor(v)`` and ``k + 1`` at the virtual index ``v = q (n - 1)``
    with ``a + (b - a) t``, or ``b - (b - a)(1 - t)`` when ``t >= 0.5``,
    and returns a NaN when the data hold one. Both values are among the
    top ``n - k`` magnitudes. So each chunk keeps only its values above the
    least one kept so far, at most its top ``n - k`` by one partition in
    place, and the kept values are cut back to the top ``n - k`` whenever
    they reach twice that. ``np.partition`` sorts NaN last, as numpy's
    quantile does, so a NaN is always kept. Equal values are bitwise equal
    except signed zeros, and magnitudes hold no -0.0, so two tied zeros
    interpolate to numpy's +0.0.
    """
    n = values.size
    v = (n - 1) * PGM_QUANTILE
    k = int(v)
    keep = n - k
    parts, held, least = [], 0, None
    for _, mag in _magnitude_chunks(values):
        flat = mag.ravel()
        if least is not None:
            flat = flat[~(flat <= least)]
        if flat.size > keep:
            flat.partition(flat.size - keep)
            flat = flat[-keep:]
        parts.append(flat.copy())
        held += flat.size
        if held >= 2 * keep:
            top = np.concatenate(parts)
            top.partition(held - keep)
            parts, held, least = [top[held - keep :]], keep, top[held - keep]
    top = np.concatenate(parts)
    top.partition(held - keep)
    if n == 1:
        a = b = top[0]
        t = 1.0  # numpy reads both values at index -1: t = v - (-1)
    else:
        a, b = top[held - keep], top[held - keep + 1 :].min()
        t = v - k
    if np.isnan(a) or np.isnan(b):
        return a if np.isnan(a) else b
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def export_tfr(tfr: TFRGrid, path, fmt: str = "csv"):
    """Export a TFR magnitude matrix.

    ``csv``: '#'-prefixed metadata header then one row per frame.
    ``pgm``: binary 8-bit grayscale heatmap, frequency down the rows with the
    highest bin on top, intensities clipped at the 99% magnitude quantile.
    ``f64le``: one JSON metadata line then the raw little-endian float64
    matrix, row-major.

    The magnitudes are streamed in row chunks of about 256 KB, so an export
    holds one chunk at a time, plus the uint8 image for a PGM, whatever the
    grid's size. A PGM reads the grid twice: once for its clip level, once
    for its pixels.
    """
    path = Path(path)
    check_tfr_format(fmt)
    values = tfr.values
    n_frames, n_bins = values.shape
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            fh.write(f"# kind={tfr.kind} fs={_fmt(tfr.fs)} fft_half={tfr.fft_half} "
                     f"hop={tfr.hop} t0={_fmt(tfr.t0)} n_frames={n_frames}\n")
            fh.write("# columns: frequency bins 0..M at m*fs/(2M) Hz; "
                     "rows: frames\n")
            # np.savetxt's lines, formatted from Python floats: a numpy
            # scalar per cell costs more than the formatting.
            line = ",".join([_FLOAT_FMT] * n_bins) + "\n"
            for _, mag in _magnitude_chunks(values):
                for row in mag:
                    fh.write(line % tuple(row.tolist()))
    elif fmt == "pgm":
        # rows = frequency, top row = highest bin; columns = frames
        img = np.zeros((n_bins, n_frames), dtype=np.uint8)
        q = float(_clip_level(values))
        if not q <= 0:  # a NaN level takes the formula, as any positive one
            for i, mag in _magnitude_chunks(values):
                # 255 * min(mag, q) / q, in place in the chunk buffer.
                np.minimum(mag, q, out=mag)
                mag *= 255.0
                mag /= q
                img[::-1, i : i + mag.shape[0]] = (
                    np.round(mag, out=mag).astype(np.uint8).T)
        with path.open("wb") as fh:
            fh.write(f"P5 {n_frames} {n_bins} 255\n".encode("ascii"))
            fh.write(img)
    else:
        meta = {"n_frames": int(n_frames), "n_bins": int(n_bins),
                "fs": tfr.fs, "fft_half": tfr.fft_half, "hop": tfr.hop,
                "t0": tfr.t0, "kind": tfr.kind, "dtype": "<f8"}
        with path.open("wb") as fh:
            fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("ascii"))
            for _, mag in _magnitude_chunks(values):
                fh.write(mag)


def read_tfr_f64le(path) -> tuple[np.ndarray, dict]:
    """``(matrix, meta)`` of an ``export_tfr(..., fmt='f64le')`` file.

    A first line that is not a JSON object with nonnegative integer
    ``n_frames`` and ``n_bins``, or a data block that is not exactly
    ``n_frames x n_bins`` float64 values, raises ``DataFormatError`` naming
    the file (and both byte counts for the data block).
    """
    path = Path(path)
    with path.open("rb") as fh:
        try:
            meta = json.loads(fh.readline().decode("ascii"))
            shape = (meta["n_frames"], meta["n_bins"])
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(
                f"{path}: no f64le header with n_frames and n_bins "
                f"({type(exc).__name__}: {exc})") from None
        if not all(type(n) is int and n >= 0 for n in shape):
            raise DataFormatError(
                f"{path}: n_frames and n_bins must be nonnegative integers, "
                f"got {shape[0]!r} and {shape[1]!r}")
        expected = 8 * shape[0] * shape[1]
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise DataFormatError(
                f"{path}: expected {expected} bytes of float64 data for "
                f"{shape[0]} x {shape[1]} values, found {found}")
        mat = np.fromfile(fh, dtype="<f8", count=shape[0] * shape[1])
    return mat.reshape(shape), meta
