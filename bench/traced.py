"""Traced rebuild of ``run_pipeline`` and the per-stage block probe.

``traced_run_pipeline`` performs the same calls as
``gaitcadence.pipeline.run_pipeline``, in the same order and through each
module's public functions, with a span around each layer's call. The
benchmark checks that its ``cadence.csv`` and ``summary.csv`` are
byte-identical to the untraced run's, which shows both measure one program.
Layers are named after the package's modules: ``io``, ``signal``, ``tfr``,
``ridge`` and ``analysis``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from gaitcadence.analysis import BoutInterval, bout_cadence_summary
from gaitcadence.config import config_as_dict
from gaitcadence.io import (check_bout_spans, export_tfr, load_labels_csv,
                            load_triaxial_csv, write_summary_csv,
                            write_trace_csv)
from gaitcadence.pipeline import (BoutOutcome, RunReport, analysis_grid,
                                  analyze_signal, extract_bout_ridge)
from gaitcadence.ridge import CadenceTrace, band_to_bins, cadence_from_ridge
from gaitcadence.signal import (Signal, TriaxialRecord, gaussian_window,
                                median_detrend, rectify, vector_magnitude)
from gaitcadence.tfr import (deshape, istct, reassignment_operator, stct, stft,
                             synchrosqueeze)

PROBE_FRAMES = 512


def _slice(rec: TriaxialRecord, bout: BoutInterval):
    i0 = max(0, int(round(bout.start_s * rec.fs)))
    i1 = min(len(rec), int(round(bout.end_s * rec.fs)))
    return TriaxialRecord(x=rec.x[i0:i1], y=rec.y[i0:i1], z=rec.z[i0:i1],
                          fs=rec.fs, location=rec.location), i0 / rec.fs


def _preprocess(tracer, sliced: TriaxialRecord, t0: float) -> Signal:
    with tracer.span("signal.preprocess") as sp:
        mag = Signal(vector_magnitude(sliced).samples, sliced.fs, t0)
        with tracer.span("signal.detrend"):
            detrended = median_detrend(mag)
        sig = rectify(detrended)
        sp.counts["samples"] = len(sig)
    return sig


def traced_run_pipeline(tracer, cfg, input_csv, labels_csv, outdir,
                        export_kinds=(), export_format="csv"):
    """``run_pipeline`` with spans; returns the first bout's preprocessed signal."""
    outdir = Path(outdir)
    with tracer.span("pipeline.run"):
        t_start = time.perf_counter()
        outdir.mkdir(parents=True, exist_ok=True)
        with tracer.span("io.load") as sp:
            rec = load_triaxial_csv(input_csv, fs_hint=cfg.fs,
                                    location=cfg.location)
            bouts = load_labels_csv(labels_csv)
            sp.counts["rows"] = len(rec)
        warnings = check_bout_spans(bouts, cfg.window_span_s)

        outcomes, outputs, traces, labels_per_frame = [], [], [], []
        first_signal = None
        for idx, bout in enumerate(bouts, start=1):
            with tracer.span("pipeline.bout"):
                t_bout = time.perf_counter()
                sliced, t0 = _slice(rec, bout)
                sig = _preprocess(tracer, sliced, t0)
                if first_signal is None:
                    first_signal = sig
                with tracer.span("tfr.analyze", peak_alloc=True) as sp:
                    analysis = analyze_signal(sig, cfg, collect=export_kinds)
                    sp.counts["frames"] = analysis.n_frames
                    sp.counts["cells"] = analysis.n_frames * (analysis.fft_half + 1)
                with tracer.span("ridge.dp", peak_alloc=True) as sp:
                    ridge = extract_bout_ridge(analysis, cfg.ridge_lambda)
                    T, B = analysis.band_mag.shape
                    sp.counts["cell_ops"] = T * B * B
                    sp.counts["degenerate"] = int(ridge.degenerate)
                trace = cadence_from_ridge(ridge, fs=analysis.fs,
                                           fft_half=analysis.fft_half,
                                           hop=analysis.hop, t0=t0)
                traces.append(trace)
                labels_per_frame.append(np.full(len(trace), bout.label, dtype=int))
                with tracer.span("io.export") as sp:
                    sp.counts["bytes_out"] = 0
                    for kind in export_kinds:
                        out = outdir / f"tfr_bout{idx:02d}_{kind}.{export_format}"
                        export_tfr(analysis_grid(analysis, kind), out,
                                   export_format)
                        outputs.append(str(out))
                        sp.counts["bytes_out"] += out.stat().st_size
                status, message = "ok", ""
                if ridge.degenerate:
                    status = "warning"
                    message = "degenerate ridge: band energy is all zero"
                    warnings.append(f"bout {idx}: {message}")
                outcomes.append(BoutOutcome(
                    start_s=bout.start_s, end_s=bout.end_s, label=bout.label,
                    status=status, message=message, n_frames=len(trace),
                    mean_cadence_hz=float(trace.cadence_hz.mean()),
                    elapsed_s=time.perf_counter() - t_bout))

        all_times = np.concatenate([t.times for t in traces])
        order = np.argsort(all_times, kind="stable")
        merged = CadenceTrace(
            times=all_times[order],
            if_hz=np.concatenate([t.if_hz for t in traces])[order],
            cadence_hz=np.concatenate([t.cadence_hz for t in traces])[order],
            frame_dt=traces[0].frame_dt)
        merged_labels = np.concatenate(labels_per_frame)[order]
        ok_bouts = [BoutInterval(o.start_s, o.end_s, o.label)
                    for o in outcomes if o.status == "ok"]
        with tracer.span("io.write") as sp:
            write_trace_csv(outdir / "cadence.csv", merged, merged_labels)
            sp.counts["bytes_out"] = (outdir / "cadence.csv").stat().st_size
        with tracer.span("analysis.summary"):
            rows = bout_cadence_summary(merged, ok_bouts, location=cfg.location)
        with tracer.span("io.write") as sp:
            write_summary_csv(outdir / "summary.csv", rows)
            sp.counts["bytes_out"] = (outdir / "summary.csv").stat().st_size
        outputs += [str(outdir / "cadence.csv"), str(outdir / "summary.csv")]

        report = RunReport(bouts=outcomes, outputs=outputs, warnings=warnings,
                           config=config_as_dict(cfg),
                           elapsed_s=time.perf_counter() - t_start)
        (outdir / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return first_signal


def block_probe(tracer, sig: Signal, cfg, repeats: int = 3) -> dict:
    """Median time of each public stage function on one block of frames.

    The block is the first ``PROBE_FRAMES`` frames of ``sig`` at the
    configured hop (fewer if the signal is shorter). Also returns the share
    of finite reassigned cells whose rounded target lands in the search band.
    """
    fs, hop = sig.fs, cfg.hop
    K = cfg.window_half(fs)
    w = gaussian_window(K, cfg.sigma)
    M = cfg.fft_half(K)
    block = Signal(sig.samples[: PROBE_FRAMES * hop], fs)
    times = {}
    for _ in range(repeats):
        tracer.run_id += 1
        with tracer.span("tfr.probe"):
            with tracer.span("tfr.stft_pair"):
                v = stft(block, w, M, hop)
                vd = stft(block, w, M, hop, derivative=True)
            with tracer.span("tfr.stct"):
                c = stct(v, cfg.gamma)
            with tracer.span("tfr.istct"):
                u = istct(c)
            with tracer.span("tfr.deshape"):
                wgrid = deshape(v, u)
            with tracer.span("tfr.omega"):
                omega = reassignment_operator(v, vd, cfg.upsilon, K)
            with tracer.span("tfr.squeeze"):
                synchrosqueeze(wgrid, omega)
        for s in tracer.spans:
            if s.run_id == tracer.run_id and s.name != "tfr.probe":
                times.setdefault(s.name, []).append(s.duration)
    lo, hi = band_to_bins(cfg.band_hz, fs, M)
    targets = np.rint(omega.values[omega.finite_mask])
    out = {f"{name}_s": statistics.median(ts) for name, ts in times.items()}
    out["tfr.squeeze_in_band_frac"] = float(
        np.mean((targets >= lo) & (targets <= hi)))
    out["tfr.probe_frames"] = v.n_frames
    return out
