"""End-to-end orchestration: preprocessing, dsSST, ridge, exports.

``run_pipeline`` and the ``tfr`` command load a recording through
``load_recording``. A time range becomes a bout's signal one way:
``_sample_range`` finds its samples, and ``_bout_signal`` checks, detrends
and rectifies their vector magnitude. ``range_signal`` does both for
``analyze_bout`` and the ``tfr`` command, from that range's samples only.
Each bout is analyzed on its own slice of samples, so one bout's data can
never influence another bout's outputs. The transform chain itself is
``tfr.dsst``, which returns only what the run reads: the squeezed
magnitudes in the search band, plus any requested full grids.

``run_pipeline`` holds one magnitude signal and one grid buffer per kind.
Each bout reads only the vector magnitude of its samples, so the run
computes the whole recording's magnitude once, notes its infinite samples,
and lets the three axes go before the first bout. Each exported
grid kind gets one ``(n_max, M + 1)`` buffer, ``n_max`` the largest frame
count of any bout, and each bout's kernel fills its first rows in place.
Nothing reads a bout's ``band_mag`` after its ridge, so the ridge of every
bout, in ``run_pipeline`` as in ``analyze_bout``, scores it in place and
a bout holds one band-sized array, not two. ``analyze_signal`` returns the
band and fresh grids, and ``extract_bout_ridge`` leaves the band as it is
unless given ``out``.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import BoutInterval, bout_cadence_summary
from .config import PipelineConfig, config_as_dict
from .errors import CadenceError, ConfigError, DataFormatError, ParameterError
from .io import (check_bout_spans, check_tfr_format, export_tfr,
                 load_labels_csv, load_triaxial_csv, write_summary_csv,
                 write_trace_csv)
from .ridge import (CadenceTrace, RidgeCurve, band_to_bins, cadence_from_ridge,
                    check_band, ridge_dp)
from .signal import Signal, TriaxialRecord, gaussian_window, \
    magnitude_samples, median_detrend, overflow_message, rectify
from .tfr import GRID_KINDS, TFRGrid, dsst

logger = logging.getLogger(__name__)


@dataclass
class BoutAnalysis:
    """Analysis result for one signal slice."""

    band_mag: np.ndarray | None  # |SW| in the search band, frames x bins
    band_bins: tuple[int, int]
    fft_half: int
    hop: int
    fs: float
    t0: float
    n_frames: int
    grids: dict = field(default_factory=dict)


def _check_kinds(kinds):
    unknown = set(kinds).difference(GRID_KINDS)
    if unknown:
        raise ParameterError(
            f"unknown grid kinds {sorted(unknown)}; expected {GRID_KINDS}")


def analyze_signal(sig: Signal, cfg: PipelineConfig, collect=(),
                   out=None) -> BoutAnalysis:
    """Run the de-shape synchrosqueezing chain over one signal.

    The squeezed magnitudes in ``cfg.band_hz`` are always kept as
    ``band_mag``. ``collect`` names grid kinds ("stft", "stct", "istct-mask",
    "dsstft", "sst", "dssst") whose full magnitude matrices should be kept,
    each ``n_frames x (M + 1)`` floats; no other full grid is built. An
    unknown kind raises ``ParameterError``. Each kept grid is a new array
    unless ``out`` maps its kind to a float64 array of exactly that shape,
    which is filled in place (``tfr.dsst``).
    """
    collect = set(collect)
    _check_kinds(collect)
    K = cfg.window_half(sig.fs)
    M = cfg.fft_half(K)
    band = band_to_bins(cfg.band_hz, sig.fs, M)
    band_mag, grids = dsst(sig, gaussian_window(K, cfg.sigma), M, cfg.hop,
                           cfg.gamma, cfg.upsilon, band, kinds=collect,
                           out=out)
    return BoutAnalysis(band_mag=band_mag, band_bins=band, fft_half=M,
                        hop=cfg.hop, fs=sig.fs, t0=sig.t0,
                        n_frames=band_mag.shape[0], grids=grids)


def extract_bout_ridge(analysis: BoutAnalysis, penalty: float,
                       out=None) -> RidgeCurve:
    """Penalized ridge over the full band-restricted analysis block.
    ``out`` goes to ``ridge_dp``: ``out=analysis.band_mag`` scores the block
    in place, overwriting it."""
    bins, degenerate = ridge_dp(analysis.band_mag, penalty, out=out)
    lo_bin, hi_bin = analysis.band_bins
    return RidgeCurve(bins=bins + lo_bin, band=(lo_bin, hi_bin),
                      degenerate=degenerate)


def analysis_grid(analysis: BoutAnalysis, kind: str) -> TFRGrid:
    """Wrap a collected magnitude matrix in a TFRGrid for export."""
    if kind not in analysis.grids:
        raise CadenceError(f"grid kind {kind!r} was not collected")
    return TFRGrid(analysis.grids[kind], fs=analysis.fs,
                   fft_half=analysis.fft_half, hop=analysis.hop, kind=kind,
                   t0=analysis.t0)


@dataclass
class BoutOutcome:
    """Status of one bout after a pipeline run."""

    start_s: float
    end_s: float
    label: int
    status: str  # ok | error
    message: str = ""
    n_frames: int = 0
    mean_cadence_hz: float | None = None
    elapsed_s: float = 0.0


@dataclass
class RunReport:
    """Per-bout status plus the manifest of files a run produced."""

    bouts: list
    outputs: list
    warnings: list
    config: dict
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "elapsed_s": self.elapsed_s,
            "warnings": list(self.warnings),
            "outputs": list(self.outputs),
            "bouts": [{**asdict(b), "elapsed_s": round(b.elapsed_s, 3)}
                      for b in self.bouts],
        }


def load_recording(cfg: PipelineConfig, path) -> TriaxialRecord:
    """Load a recording CSV and reject a config that it cannot serve: a
    band above its Nyquist frequency (``ParameterError``), or a window under
    3 samples, over ``fft_pad`` or over the whole recording (``ConfigError``).
    """
    rec = load_triaxial_csv(path, fs_hint=cfg.fs, location=cfg.location)
    check_band(cfg.band_hz, rec.fs)
    K = cfg.window_half(rec.fs)
    cfg.fft_half(K)
    if 2 * K + 1 > len(rec):
        raise ConfigError(
            f"window_span_s={cfg.window_span_s} spans {2 * K + 1} samples, "
            f"more than the {len(rec)}-sample recording")
    return rec


def _sample_range(n: int, fs: float, start_s=None,
                  end_s=None) -> tuple[int, int, str]:
    """Samples ``lo:hi`` of an ``n``-sample recording at ``fs`` Hz that lie
    from ``start_s`` to ``end_s`` seconds (``None``: the recording's start or
    end), and a note if the range ran past the recording and was clipped to
    it, else ``""``. A range holding no sample raises ``DataFormatError``
    and a non-finite bound ``ParameterError``."""
    for name, bound in (("start", start_s), ("end", end_s)):
        if bound is not None and not np.isfinite(bound):
            raise ParameterError(f"{name} time must be finite, got {bound}")
    i0 = 0 if start_s is None else int(round(start_s * fs))
    i1 = n if end_s is None else int(round(end_s * fs))
    lo, hi = max(0, i0), min(n, i1)
    if hi <= lo:
        raise DataFormatError(
            f"time range [{start_s}, {end_s}] s holds no sample of the recording"
        )
    note = ""
    if (lo, hi) != (i0, i1):
        note = (f"[{start_s}, {end_s}] runs past the {n / fs:g} s "
                "recording; clipped to it")
    return lo, hi, note


def _n_frames(n_samples: int, hop: int) -> int:
    """Frames of an ``n_samples`` slice at ``hop``: ``ceil(n_samples / hop)``,
    as ``tfr._frames`` makes them."""
    return -(-n_samples // hop)


def _recording_magnitude(rec: TriaxialRecord):
    """The vector magnitude of every sample of ``rec``, the indices of the
    samples where it is infinite and their axis values, one row per
    sample."""
    mag = magnitude_samples(rec)
    inf = np.flatnonzero(np.isinf(mag))
    return mag, inf, np.column_stack([rec.x[inf], rec.y[inf], rec.z[inf]])


def _bout_signal(magnitude, lo: int, hi: int, fs: float, t0: float) -> Signal:
    """The detrended, rectified samples ``lo:hi`` of a recording's
    ``_recording_magnitude``, at ``fs`` Hz from ``t0`` seconds. If the
    range's first infinite magnitude has finite axes, it overflows float64:
    ``DataFormatError`` names that sample, counted from ``lo``. An infinite
    axis, which the loader rejects, fails ``Signal``'s check."""
    mag, inf, inf_axes = magnitude
    k = np.searchsorted(inf, lo)
    if k < inf.size and inf[k] < hi and np.isfinite(inf_axes[k]).all():
        raise DataFormatError(overflow_message(inf[k] - lo, *inf_axes[k]))
    return rectify(median_detrend(Signal(mag[lo:hi], fs, t0)))


def range_signal(rec: TriaxialRecord, start_s=None, end_s=None) -> Signal:
    """The bout signal of ``rec`` from ``start_s`` to ``end_s`` seconds
    (``None``: its start or end), as the run builds it. A range that runs
    past the recording is clipped to it with a logged warning; the errors
    are ``_sample_range``'s and ``_bout_signal``'s."""
    lo, hi, note = _sample_range(len(rec), rec.fs, start_s, end_s)
    if note:
        logger.warning("%s", note)
    part = TriaxialRecord(rec.x[lo:hi], rec.y[lo:hi], rec.z[lo:hi], rec.fs)
    return _bout_signal(_recording_magnitude(part), 0, hi - lo, rec.fs,
                        lo / rec.fs)


def _analyze_slice(sig: Signal, cfg: PipelineConfig, collect, out=None):
    """Analysis, ridge and trace of one preprocessed slice. The ridge scores
    ``band_mag`` in place, so the returned analysis has ``band_mag = None``;
    ``out`` goes to ``analyze_signal``."""
    analysis = analyze_signal(sig, cfg, collect=collect, out=out)
    ridge = extract_bout_ridge(analysis, cfg.ridge_lambda,
                               out=analysis.band_mag)
    analysis.band_mag = None
    trace = cadence_from_ridge(ridge, fs=analysis.fs, fft_half=analysis.fft_half,
                               hop=analysis.hop, t0=analysis.t0)
    return analysis, ridge, trace


def analyze_bout(rec: TriaxialRecord, bout: BoutInterval, cfg: PipelineConfig,
                 collect=()):
    """Analyze one bout's ``range_signal`` of ``rec``, as the run does.

    Returns ``(analysis, ridge, trace)``; the ridge scores the band in place,
    so ``analysis.band_mag`` is ``None`` (``analyze_signal`` keeps it). A
    degenerate ridge is flagged on the curve rather than raised, so the
    caller decides how to report it.
    """
    return _analyze_slice(range_signal(rec, bout.start_s, bout.end_s), cfg,
                          collect)


def run_pipeline(cfg: PipelineConfig, input_csv, labels_csv, outdir,
                 export_kinds=(), export_format: str = "csv") -> RunReport:
    """Full pipeline over a recording: per bout, Step 0 through cadence.

    Writes ``cadence.csv``, ``summary.csv``, ``report.json``, and any
    requested per-bout TFR exports into ``outdir``. An unknown export kind
    or format raises ``ParameterError`` before anything is read. A failing
    bout, including one whose band energy is all zero, is reported and
    skipped; the remaining bouts still run.
    """
    t_start = time.perf_counter()
    export_kinds = tuple(dict.fromkeys(export_kinds))
    _check_kinds(export_kinds)
    check_tfr_format(export_format)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rec = load_recording(cfg, input_csv)
    bouts = load_labels_csv(labels_csv)
    fs, M = rec.fs, cfg.fft_half(cfg.window_half(rec.fs))
    n_samples, magnitude = len(rec), _recording_magnitude(rec)
    del rec  # each bout reads only the magnitude

    # One buffer per exported kind, for the bout with the most frames; a
    # bout whose range holds no sample fails in the loop below.
    n_max = 0
    for bout in bouts:
        try:
            lo, hi, _ = _sample_range(n_samples, fs, bout.start_s, bout.end_s)
        except CadenceError:
            continue
        n_max = max(n_max, _n_frames(hi - lo, cfg.hop))
    buffers = {kind: np.empty((n_max, M + 1)) for kind in export_kinds}

    warnings = []
    outcomes = []
    outputs = []
    traces = []

    for idx, bout in enumerate(bouts, start=1):
        t_bout = time.perf_counter()
        status, message, n_frames, mean_hz = "ok", "", 0, None
        try:
            lo, hi, note = _sample_range(n_samples, fs, bout.start_s,
                                         bout.end_s)
            t0 = lo / fs
            analyzed = BoutInterval(t0, t0 + (hi - lo) / fs, bout.label)
            notes = [f"bout {idx} {note}"] if note else []
            notes += check_bout_spans([analyzed], cfg.window_span_s)
            for msg in notes:  # recorded before the analysis, which may fail
                logger.warning("%s", msg)
                warnings.append(msg)
            n = _n_frames(hi - lo, cfg.hop)
            analysis, ridge, trace = _analyze_slice(
                _bout_signal(magnitude, lo, hi, fs, t0), cfg, export_kinds,
                out={kind: buf[:n] for kind, buf in buffers.items()})
            if ridge.degenerate:
                raise DataFormatError(
                    "degenerate ridge: band energy is all zero")
            for kind in export_kinds:
                out = outdir / f"tfr_bout{idx:02d}_{kind}.{export_format}"
                export_tfr(analysis_grid(analysis, kind), out, export_format)
                outputs.append(str(out))
            traces.append(trace)
            n_frames, mean_hz = len(trace), float(trace.cadence_hz.mean())
        except CadenceError as exc:
            # The record gets the text, not the error: a handler that keeps
            # records would keep the traceback's frames and their grids.
            status, message = "error", str(exc)
            logger.error("bout %d [%s, %s] failed: %s", idx, bout.start_s,
                         bout.end_s, message)
        outcomes.append(BoutOutcome(
            start_s=bout.start_s, end_s=bout.end_s, label=bout.label,
            status=status, message=message, n_frames=n_frames,
            mean_cadence_hz=mean_hz, elapsed_s=time.perf_counter() - t_bout,
        ))
    # The last bout's grids are views of the buffers: all go now.
    analysis = buffers = magnitude = None

    if traces:
        # The bouts are sorted and disjoint, so the traces are in time order.
        merged = CadenceTrace(
            times=np.concatenate([t.times for t in traces]),
            if_hz=np.concatenate([t.if_hz for t in traces]),
            cadence_hz=np.concatenate([t.cadence_hz for t in traces]),
            frame_dt=traces[0].frame_dt,
        )
        # A failed bout has no frames, so it adds no labels.
        merged_labels = np.repeat([o.label for o in outcomes],
                                  [o.n_frames for o in outcomes])

        trace_path = outdir / "cadence.csv"
        write_trace_csv(trace_path, merged, merged_labels)
        outputs.append(str(trace_path))

        ok_bouts = [BoutInterval(o.start_s, o.end_s, o.label)
                    for o in outcomes if o.status == "ok"]
        rows = bout_cadence_summary(merged, ok_bouts, location=cfg.location)
        summary_path = outdir / "summary.csv"
        write_summary_csv(summary_path, rows)
        outputs.append(str(summary_path))

    report = RunReport(bouts=outcomes, outputs=outputs, warnings=warnings,
                       config=config_as_dict(cfg),
                       elapsed_s=time.perf_counter() - t_start)
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                           + "\n")
    report.outputs.append(str(report_path))
    return report
