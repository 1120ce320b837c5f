"""End-to-end pipeline behavior on small, fast fixtures."""

import hashlib
import json
import logging
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitcadence.analysis import BoutInterval
from gaitcadence.cli import main
from gaitcadence.config import PipelineConfig
from gaitcadence.analysis import bout_cadence_summary
from gaitcadence.errors import DataFormatError, ParameterError, StructuralError
from gaitcadence.io import (export_tfr, load_labels_csv, load_trace_csv,
                            load_triaxial_csv, write_labels_csv,
                            write_summary_csv, write_trace_csv,
                            write_triaxial_csv)
from gaitcadence.pipeline import (_sample_range, analysis_grid, analyze_bout,
                                  analyze_signal, extract_bout_ridge,
                                  run_pipeline)
from gaitcadence.ridge import CadenceTrace, cadence_from_ridge
from gaitcadence.signal import Signal, TriaxialRecord, vector_magnitude
from gaitcadence.synth import ConstantProfile
from gaitcadence.tfr import GRID_KINDS

from conftest import as_record, make_walk

# Small fast configuration: 8 s window at 50 Hz keeps the DFT at 2048 points.
FAST = dict(window_span_s=8.0, fs=None)


def fast_config(**kw):
    return PipelineConfig(**{**FAST, **kw}).validate()


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    """24 s walking bout at 50 Hz written to CSV files."""
    outdir = tmp_path_factory.mktemp("fixture")
    spec, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5,
                          if_profile=ConstantProfile(1.0))
    rec = as_record(res)
    csv_path = outdir / "rec.csv"
    labels_path = outdir / "labels.csv"
    write_triaxial_csv(csv_path, rec)
    write_labels_csv(labels_path, res.bouts)
    return csv_path, labels_path


class TestAnalyzeBout:
    def test_recovers_constant_cadence(self):
        spec, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0,
                              seed=5)
        rec = as_record(res)
        cfg = fast_config()
        _, ridge, trace = analyze_bout(rec, BoutInterval(2.0, 26.0, 1), cfg)
        assert not ridge.degenerate
        interior = (trace.times >= 6.0) & (trace.times <= 22.0)
        assert trace.cadence_hz[interior].mean() == pytest.approx(2.0, abs=0.06)

    def test_lambda_zero_no_smoother(self):
        spec, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0,
                              seed=6, snr_db=3.0)
        rec = as_record(res)
        bout = BoutInterval(2.0, 26.0, 1)
        _, ridge0, _ = analyze_bout(rec, bout, fast_config(ridge_lambda=0.0))
        _, ridge1, _ = analyze_bout(rec, bout, fast_config(ridge_lambda=1.0))
        jumps0 = np.sum(np.diff(ridge0.bins) ** 2)
        jumps1 = np.sum(np.diff(ridge1.bins) ** 2)
        assert jumps0 >= jumps1

    def test_collected_grids_exportable(self):
        spec, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0,
                              seed=5)
        rec = as_record(res)
        cfg = fast_config(hop=5)
        analysis, _, _ = analyze_bout(rec, BoutInterval(2.0, 26.0, 1), cfg,
                                      collect=("stft", "dssst"))
        assert set(analysis.grids) == {"stft", "dssst"}
        n_bins = analysis.fft_half + 1
        assert analysis.grids["stft"].shape == (analysis.n_frames, n_bins)
        assert np.all(analysis.grids["dssst"] >= 0.0)

    def test_clipped_bout_warns_as_tfr_does(self, caplog):
        # The recording is 28 s long: 2-40 s is clipped to 2-28 s.
        _, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        with caplog.at_level(logging.WARNING):
            _, ridge, _ = analyze_bout(as_record(res), BoutInterval(2.0, 40.0, 1),
                                       fast_config(hop=5))
        assert not ridge.degenerate
        assert [r.getMessage() for r in caplog.records] == [
            "[2.0, 40.0] runs past the 28 s recording; clipped to it"]

    def test_peak_memory_holds_one_band(self, const_walk):
        # A 60 s hop-1 bout at the default configuration: the ridge scores
        # the 8.6 MB band in place, beside the kernel's two ~1.5 MB
        # workspaces, so the call peaks near 12.2 MB; a copy of the band
        # for the ridge brings it to ~18 MB.
        rec = as_record(const_walk[1])
        tracemalloc.start()
        try:
            analysis, _, trace = analyze_bout(rec, BoutInterval(2.0, 62.0, 1),
                                              PipelineConfig().validate())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 6000 and analysis.band_mag is None
        assert peak < 14e6

    @pytest.mark.parametrize("x, error, message", [
        (1.5e160, DataFormatError, "sample 900: the vector magnitude of the "
         r"finite axes \(1.5e\+160, 0.0, 0.0\) overflows float64"),
        (np.inf, ParameterError, "sample 900 is not finite: inf")],
        ids=["overflow", "infinite-axis"])
    def test_bad_sample_named_from_bout_start(self, x, error, message):
        # Sample 1000 is sample 900 of the 2-26 s bout; as the run does, an
        # overflowing magnitude is a data error.
        _, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        rec = as_record(res)
        rec.x[1000] = x
        with pytest.raises(error, match=f"^{message}$"):
            analyze_bout(rec, BoutInterval(2.0, 26.0, 1), fast_config(hop=5))

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(t0=st.floats(-1e6, 1e6), hop=st.integers(1, 4),
           kinds=st.sets(st.sampled_from(GRID_KINDS), max_size=2))
    def test_t0_moves_only_the_trace_times(self, t0, hop, kinds):
        rng = np.random.default_rng(3)
        t = np.arange(480) / 20.0
        x = np.abs(np.cos(2 * np.pi * t) + 0.3 * rng.normal(size=t.size))
        cfg = fast_config(hop=hop)
        runs = []
        for start in (0.0, t0):
            analysis = analyze_signal(Signal(x, 20.0, start), cfg, collect=kinds)
            ridge = extract_bout_ridge(analysis, cfg.ridge_lambda)
            runs.append((analysis, cadence_from_ridge(
                ridge, fs=analysis.fs, fft_half=analysis.fft_half,
                hop=analysis.hop, t0=analysis.t0)))
        (a0, trace0), (a1, trace1) = runs
        assert a1.band_mag.tobytes() == a0.band_mag.tobytes()
        assert {k: g.tobytes() for k, g in a1.grids.items()} == {
            k: g.tobytes() for k, g in a0.grids.items()}
        assert trace1.times.tobytes() == (t0 + trace0.times).tobytes()
        assert trace1.cadence_hz.tobytes() == trace0.cadence_hz.tobytes()

    def test_zero_hop_rejected_without_validation(self):
        _, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        with pytest.raises(ParameterError, match="hop must be >= 1"):
            analyze_signal(res.signal, PipelineConfig(**FAST, hop=0))

    @pytest.mark.parametrize("dtype, extra_rows", [(np.float64, 1),
                                                   (np.float32, 0)])
    def test_wrong_out_rejected(self, dtype, extra_rows):
        _, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        cfg = fast_config(hop=5)
        n = -(-len(res.signal) // 5)
        M = cfg.fft_half(cfg.window_half(res.signal.fs))
        out = {"dssst": np.empty((n + extra_rows, M + 1), dtype)}
        with pytest.raises(StructuralError, match="out"):
            analyze_signal(res.signal, cfg, collect=("dssst",), out=out)

    def test_unknown_grid_kind_rejected(self):
        _, res = make_walk(duration_s=28.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        with pytest.raises(ParameterError, match="bogus"):
            analyze_signal(res.signal, fast_config(hop=5),
                           collect=("dssst", "bogus"))


class TestSliceRecord:
    """A time range's samples, as ``_sample_range`` finds them."""

    @pytest.mark.parametrize("start_s, end_s", [
        (float("nan"), None), (float("inf"), None), (None, float("-inf")),
        (2.0, float("nan")),
    ])
    def test_non_finite_bound_rejected(self, start_s, end_s):
        with pytest.raises(ParameterError, match="must be finite"):
            _sample_range(1400, 50.0, start_s, end_s)


class TestRunPipeline:
    def test_outputs_and_report(self, small_fixture, tmp_path):
        csv_path, labels_path = small_fixture
        cfg = fast_config()
        report = run_pipeline(cfg, csv_path, labels_path, tmp_path / "out")
        assert len(report.bouts) == 1
        assert report.bouts[0].status == "ok"
        assert report.bouts[0].mean_cadence_hz == pytest.approx(2.0, abs=0.06)

        trace, labels = load_trace_csv(tmp_path / "out" / "cadence.csv")
        assert np.all(labels == 1)
        assert len(trace) == report.bouts[0].n_frames

        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("location,label,activity")
        assert "walking" in summary[1]

        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded["bouts"][0]["status"] == "ok"
        assert loaded["config"]["gamma"] == 0.3

    def test_determinism_byte_identical(self, small_fixture, tmp_path):
        csv_path, labels_path = small_fixture
        for d in ("a", "b"):
            run_pipeline(fast_config(), csv_path, labels_path, tmp_path / d)
        for name in ("cadence.csv", "summary.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_empty_bout_list(self, small_fixture, tmp_path):
        csv_path, _ = small_fixture
        labels = tmp_path / "empty_labels.csv"
        labels.write_text("start_s,end_s,label\n")
        report = run_pipeline(fast_config(), csv_path, labels,
                              tmp_path / "out")
        assert report.bouts == []
        assert not (tmp_path / "out" / "cadence.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_failing_bout_isolated(self, small_fixture, tmp_path):
        csv_path, _ = small_fixture
        # second bout lies outside the recording: it must fail alone
        labels = tmp_path / "labels2.csv"
        labels.write_text("start_s,end_s,label\n2,26,1\n100,130,3\n")
        report = run_pipeline(fast_config(), csv_path, labels,
                              tmp_path / "out")
        statuses = [b.status for b in report.bouts]
        assert statuses == ["ok", "error"]
        assert not any("clipped" in w for w in report.warnings)
        assert (tmp_path / "out" / "cadence.csv").exists()

    def test_bout_shorter_than_detrend_window(self, small_fixture, tmp_path):
        csv_path, _ = small_fixture
        labels = tmp_path / "labels_short.csv"
        labels.write_text("start_s,end_s,label\n2,7,1\n8,26,1\n")
        report = run_pipeline(fast_config(), csv_path, labels, tmp_path / "out")
        assert [b.status for b in report.bouts] == ["error", "ok"]
        assert re.fullmatch(
            r"signal spans 5 s, shorter than the 10 s running-median detrend "
            r"window \(250 < 500 samples\)", report.bouts[0].message)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: bout_cadence_summary pools frames by the label "
        "bounds, but a bout's frames start at its slice's first sample, "
        "about 4e-14 s before start_s with fs inferred from the CSV times, "
        "so each bout's first frame is dropped or, next to another bout, "
        "counted under that bout's label"))
    def test_summary_counts_each_bouts_own_frames(self, small_fixture,
                                                   tmp_path):
        csv_path, _ = small_fixture
        labels = tmp_path / "labels_adjacent.csv"
        labels.write_text("start_s,end_s,label\n2.004,14.004,1\n14.004,26,3\n")
        report = run_pipeline(fast_config(), csv_path, labels, tmp_path / "out")
        assert [b.status for b in report.bouts] == ["ok", "ok"]
        _, frame_labels = load_trace_csv(tmp_path / "out" / "cadence.csv")
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        n_frames = {int(r.split(",")[1]): int(r.split(",")[5]) for r in rows}
        assert n_frames == {label: int(np.sum(frame_labels == label))
                            for label in (1, 3)}

    def test_clipped_bout_warns(self, small_fixture, tmp_path):
        csv_path, labels_path = small_fixture
        labels = tmp_path / "labels_long.csv"
        labels.write_text("start_s,end_s,label\n2,40,1\n")
        report = run_pipeline(fast_config(), csv_path, labels, tmp_path / "out")
        assert report.bouts[0].status == "ok"
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("bout 1" in w and "clipped" in w for w in loaded["warnings"])
        # an in-range bout is not flagged
        run = run_pipeline(fast_config(), csv_path, labels_path, tmp_path / "ok")
        assert not any("clipped" in w for w in run.warnings)

    def test_clipped_bout_that_fails_still_warns(self, small_fixture, tmp_path):
        # Bout 2 is clipped to 24-28 s, shorter than the detrend window.
        csv_path, _ = small_fixture
        labels = tmp_path / "labels_clipped.csv"
        labels.write_text("start_s,end_s,label\n2,20,1\n24,40,1\n")
        run_pipeline(fast_config(), csv_path, labels, tmp_path / "out")
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [b["status"] for b in loaded["bouts"]] == ["ok", "error"]
        assert any("bout 2" in w and "clipped" in w for w in loaded["warnings"])

    def test_short_clipped_bout_warns_on_its_analyzed_span(self, small_fixture,
                                                          tmp_path):
        # Bout 2 is labelled 22-40 s (18 s), but only 22-28 s is recorded.
        csv_path, _ = small_fixture
        labels = tmp_path / "labels_clipped.csv"
        labels.write_text("start_s,end_s,label\n2,20,1\n22,40,1\n")
        report = run_pipeline(fast_config(), csv_path, labels, tmp_path / "out")
        short = [w for w in report.warnings if "analysis window" in w]
        assert short == ["bout [22, 28] spans 6 s, shorter than the 8 s "
                         "analysis window"]

    @pytest.mark.parametrize("kw", [
        dict(export_kinds=("stft",), export_format="npz"),
        dict(export_kinds=("stft", "no-such-grid")),
    ])
    def test_unknown_export_option_fails_before_any_bout(self, small_fixture,
                                                         tmp_path, kw):
        csv_path, labels_path = small_fixture
        with pytest.raises(ParameterError):
            run_pipeline(fast_config(hop=10), csv_path, labels_path,
                         tmp_path / "out", **kw)
        assert not (tmp_path / "out").exists()

    def test_degenerate_bout_fails_and_writes_no_frames(self, tmp_path):
        # Bout 2 lies on a flat stretch: its search band has no energy.
        _, res = make_walk(duration_s=60.0, bout=(2.0, 26.0), fs=50.0, seed=5)
        rec = as_record(res)
        rec.x[int(30 * 50.0):] = 1.5
        csv_path = tmp_path / "rec.csv"
        write_triaxial_csv(csv_path, rec)
        both = tmp_path / "both.csv"
        both.write_text("start_s,end_s,label\n2,26,1\n30,60,3\n")
        first = tmp_path / "first.csv"
        first.write_text("start_s,end_s,label\n2,26,1\n")

        cfg = fast_config(hop=10)
        report = run_pipeline(cfg, csv_path, both, tmp_path / "both",
                              export_kinds=("stft",), export_format="f64le")
        assert [(b.status, b.message, b.n_frames) for b in report.bouts[1:]] \
            == [("error", "degenerate ridge: band energy is all zero", 0)]
        assert report.bouts[0].status == "ok"
        assert not (tmp_path / "both" / "tfr_bout02_stft.f64le").exists()
        run_pipeline(cfg, csv_path, first, tmp_path / "first")
        for name in ("cadence.csv", "summary.csv"):
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / "first" / name).read_bytes())
        assert main(["run", str(csv_path), str(both), "-o",
                     str(tmp_path / "cli"), "--window-span-s", "8",
                     "--hop", "10"]) == 2

    def test_export_failure_leaves_no_frames(self, small_fixture, tmp_path,
                                             monkeypatch):
        import gaitcadence.pipeline as pipeline
        export_tfr = pipeline.export_tfr

        def export_all_but_bout2(grid, path, fmt):
            if "bout02" in str(path):
                raise DataFormatError("disk full")
            export_tfr(grid, path, fmt)

        monkeypatch.setattr(pipeline, "export_tfr", export_all_but_bout2)
        csv_path, _ = small_fixture
        labels = tmp_path / "labels.csv"
        labels.write_text("start_s,end_s,label\n2,13,1\n14,26,3\n")
        report = run_pipeline(fast_config(hop=10), csv_path, labels,
                              tmp_path / "out", export_kinds=("stft",),
                              export_format="f64le")
        assert [(b.status, b.message) for b in report.bouts] == [
            ("ok", ""), ("error", "disk full")]
        assert report.bouts[0].n_frames > 0
        assert report.bouts[1].n_frames == 0
        trace, labels_per_frame = load_trace_csv(tmp_path / "out" / "cadence.csv")
        assert len(trace) == report.bouts[0].n_frames
        assert set(labels_per_frame) == {1}

    @pytest.mark.parametrize("export_fails", [False, True])
    def test_one_bouts_grids_at_a_time(self, small_fixture, tmp_path,
                                       monkeypatch, export_fails):
        # The loaded axes are gone before the first bout's kernel runs, and
        # each bout's kept grids, exported or not, are the first rows of the
        # run's one buffer per kind, sized to the longest bout (bout 2: 60
        # frames against 55); the buffers go with the run.
        import gaitcadence.pipeline as pipeline
        load, dsst = pipeline.load_recording, pipeline.dsst
        export_tfr = pipeline.export_tfr
        axes, axes_alive, buffers, views = [], [], {}, []

        def tracked_load(*args):
            rec = load(*args)
            axes.extend(weakref.ref(a) for a in (rec.x, rec.y, rec.z))
            return rec

        def tracked_dsst(*args, **kwargs):
            axes_alive.append([ref() is not None for ref in axes])
            band_mag, kept = dsst(*args, **kwargs)
            for kind, grid in kept.items():
                buf = buffers.setdefault(kind, weakref.ref(grid.base))()
                views.append((kind, grid.base is buf, grid.shape[0],
                              buf.shape[0], grid.ctypes.data == buf.ctypes.data))
            return band_mag, kept

        def export(grid, path, fmt):
            if export_fails:
                raise DataFormatError("disk full")
            export_tfr(grid, path, fmt)

        monkeypatch.setattr(pipeline, "load_recording", tracked_load)
        monkeypatch.setattr(pipeline, "dsst", tracked_dsst)
        monkeypatch.setattr(pipeline, "export_tfr", export)
        csv_path, _ = small_fixture
        labels = tmp_path / "labels.csv"
        labels.write_text("start_s,end_s,label\n2,13,1\n14,26,3\n")
        report = run_pipeline(fast_config(hop=10), csv_path, labels,
                              tmp_path / "out", export_kinds=("dssst", "stft"),
                              export_format="pgm")
        assert [b.status for b in report.bouts] == (
            ["error"] * 2 if export_fails else ["ok"] * 2)
        assert axes_alive == [[False] * 3] * 2
        assert views == [("stft", True, 55, 60, True),
                         ("dssst", True, 55, 60, True),
                         ("stft", True, 60, 60, True),
                         ("dssst", True, 60, 60, True)]
        assert [ref() for ref in buffers.values()] == [None, None]

    def test_ridge_scores_band_mag_in_place(self, small_fixture, tmp_path,
                                            monkeypatch):
        import gaitcadence.pipeline as pipeline
        ridge_dp, in_place = pipeline.ridge_dp, []

        def spy(mag, penalty, out=None):
            in_place.append(out is mag)
            return ridge_dp(mag, penalty, out=out)

        monkeypatch.setattr(pipeline, "ridge_dp", spy)
        csv_path, labels_path = small_fixture
        report = run_pipeline(fast_config(hop=10), csv_path, labels_path,
                              tmp_path / "out")
        assert [b.status for b in report.bouts] == ["ok"]
        assert in_place == [True]

    def test_per_bout_isolation(self, tmp_path):
        spec, res = make_walk(duration_s=60.0, bout=(2.0, 26.0), fs=50.0,
                              seed=5)
        rec = as_record(res)
        labels = tmp_path / "labels.csv"
        labels.write_text("start_s,end_s,label\n2,26,1\n32,56,1\n")

        clean_csv = tmp_path / "clean.csv"
        write_triaxial_csv(clean_csv, rec)
        corrupt = as_record(res)
        corrupt.x[int(40 * 50.0) : int(44 * 50.0)] = 9.9  # inside bout 2 only
        corrupt_csv = tmp_path / "corrupt.csv"
        write_triaxial_csv(corrupt_csv, corrupt)

        run_pipeline(fast_config(), clean_csv, labels, tmp_path / "a")
        run_pipeline(fast_config(), corrupt_csv, labels, tmp_path / "b")

        def bout1_rows(path):
            lines = (path / "cadence.csv").read_text().splitlines()
            return [ln for ln in lines[1:] if float(ln.split(",")[0]) < 30.0]

        assert bout1_rows(tmp_path / "a") == bout1_rows(tmp_path / "b")

    def test_tfr_export_files(self, small_fixture, tmp_path):
        csv_path, labels_path = small_fixture
        cfg = fast_config(hop=10)
        report = run_pipeline(cfg, csv_path, labels_path, tmp_path / "out",
                              export_kinds=("dssst",), export_format="pgm")
        exported = [p for p in report.outputs if p.endswith(".pgm")]
        assert len(exported) == 1
        header = open(exported[0], "rb").read(2)
        assert header == b"P5"

    def test_repeated_export_kind_written_once(self, small_fixture, tmp_path):
        csv_path, labels_path = small_fixture
        run_pipeline(fast_config(hop=10), csv_path, labels_path,
                     tmp_path / "out", export_kinds=("stft", "dssst", "stft"),
                     export_format="f64le")
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        exported = [p for p in loaded["outputs"] if p.endswith(".f64le")]
        assert [p.rsplit("_", 1)[1] for p in exported] == ["stft.f64le",
                                                            "dssst.f64le"]


@pytest.fixture(scope="module")
def three_bouts(tmp_path_factory):
    """A 60 s walk at 50 Hz with bouts of 12, 25 and 15 s: the longest, which
    sizes the run's grid buffers, is neither first nor last."""
    outdir = tmp_path_factory.mktemp("three_bouts")
    _, res = make_walk(duration_s=60.0, bout=(2.0, 58.0), fs=50.0, seed=11)
    csv_path, labels = outdir / "rec.csv", outdir / "labels.csv"
    write_triaxial_csv(csv_path, as_record(res))
    labels.write_text("start_s,end_s,label\n2,14,1\n15,40,2\n41,56,3\n")
    return csv_path, labels


def run_outputs(csv_path, labels, outdir):
    """The sha256 of every output of a hop-10 run exporting stft, and
    ``report.json`` without its elapsed times."""
    run_pipeline(fast_config(hop=10), csv_path, labels, outdir,
                 export_kinds=("stft",), export_format="f64le")
    report = json.loads((outdir / "report.json").read_text())
    del report["elapsed_s"]
    for bout in report["bouts"]:
        del bout["elapsed_s"]
    report["outputs"] = [Path(p).name for p in report["outputs"]]
    return report, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in outdir.iterdir() if p.name != "report.json"}


@pytest.fixture(scope="module")
def three_bouts_run(three_bouts, tmp_path_factory):
    """``three_bouts`` with its outputs, labels in time order."""
    csv_path, labels = three_bouts
    return csv_path, labels, run_outputs(
        csv_path, labels, tmp_path_factory.mktemp("three_bouts_run"))


def with_sample(csv_path, tmp_path, row, x):
    """A copy of the recording whose ``row``-th sample has x axis ``x``."""
    lines = csv_path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[1] = x
    lines[row + 1] = ",".join(fields)
    out = tmp_path / "edited.csv"
    out.write_text("\n".join(lines) + "\n")
    return out


class TestRunBuffers:
    @pytest.mark.parametrize("fmt, end", [
        pytest.param("pgm", 56, id="pgm"), pytest.param("f64le", 56, id="f64le"),
        pytest.param("f64le", 70, id="f64le-clipped")])
    def test_outputs_equal_fresh_per_bout_analyses(self, three_bouts, tmp_path,
                                                   fmt, end):
        # With end 70, bout 3 runs past the 60 s recording and is clipped.
        csv_path, _ = three_bouts
        labels = tmp_path / "labels.csv"
        labels.write_text(f"start_s,end_s,label\n2,14,1\n15,40,2\n41,{end},3\n")
        cfg = fast_config(hop=5)
        kinds = ("stft", "sst", "dssst")
        report = run_pipeline(cfg, csv_path, labels, tmp_path / "run",
                              export_kinds=kinds, export_format=fmt)
        assert [b.status for b in report.bouts] == ["ok"] * 3

        rec, bouts = load_triaxial_csv(csv_path), load_labels_csv(labels)
        want = tmp_path / "want"
        want.mkdir()
        traces = []
        for idx, bout in enumerate(bouts, start=1):
            analysis, _, trace = analyze_bout(rec, bout, cfg, collect=kinds)
            assert all(grid.base is None for grid in analysis.grids.values())
            for kind in kinds:
                export_tfr(analysis_grid(analysis, kind),
                           want / f"tfr_bout{idx:02d}_{kind}.{fmt}", fmt)
            traces.append(trace)
        merged = CadenceTrace(
            times=np.concatenate([t.times for t in traces]),
            if_hz=np.concatenate([t.if_hz for t in traces]),
            cadence_hz=np.concatenate([t.cadence_hz for t in traces]),
            frame_dt=traces[0].frame_dt)
        write_trace_csv(want / "cadence.csv", merged,
                        np.repeat([b.label for b in bouts],
                                  [len(t) for t in traces]))
        write_summary_csv(want / "summary.csv",
                          bout_cadence_summary(merged, bouts))
        names = sorted(p.name for p in want.iterdir())
        assert len(names) == 2 + 3 * len(kinds)
        for name in names:
            assert ((tmp_path / "run" / name).read_bytes()
                    == (want / name).read_bytes()), name

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(order=st.permutations(range(3)))
    def test_label_row_order_changes_no_output_byte(self, three_bouts_run,
                                                    order):
        csv_path, labels, want = three_bouts_run
        rows = labels.read_text().splitlines()
        with tempfile.TemporaryDirectory() as tmp:
            shuffled = Path(tmp) / "labels.csv"
            shuffled.write_text("\n".join([rows[0]] + [rows[1 + i]
                                                       for i in order]) + "\n")
            assert run_outputs(csv_path, shuffled, Path(tmp) / "out") == want

    def test_overflow_fails_only_its_bout(self, three_bouts, tmp_path):
        # Row 1000 is sample 250 of bout 2, which starts at row 750.
        csv_path, labels = three_bouts
        bad = with_sample(csv_path, tmp_path, 1000, "1.5e160")
        rec = load_triaxial_csv(bad)
        bout = TriaxialRecord(x=rec.x[750:2000], y=rec.y[750:2000],
                              z=rec.z[750:2000], fs=rec.fs)
        with pytest.raises(ParameterError) as want:
            vector_magnitude(bout)
        report = run_pipeline(fast_config(hop=10), bad, labels,
                              tmp_path / "out", export_kinds=("dssst",))
        assert [(b.status, b.message) for b in report.bouts] == [
            ("ok", ""), ("error", str(want.value)), ("ok", "")]
        assert str(want.value).startswith("sample 250: ")
        assert "(1.5e+160, 0.0, 0.0)" in str(want.value)

    def test_overflow_outside_every_bout_fails_nothing(self, three_bouts,
                                                       tmp_path):
        # Row 725 lies at 14.5 s, between bouts 1 and 2.
        csv_path, labels = three_bouts
        bad = with_sample(csv_path, tmp_path, 725, "1.5e160")
        cfg = fast_config(hop=10)
        report = run_pipeline(cfg, bad, labels, tmp_path / "bad")
        run_pipeline(cfg, csv_path, labels, tmp_path / "clean")
        assert [b.status for b in report.bouts] == ["ok"] * 3
        for name in ("cadence.csv", "summary.csv"):
            assert ((tmp_path / "bad" / name).read_bytes()
                    == (tmp_path / "clean" / name).read_bytes())

