"""Command-line interface: subcommand flows and exit codes."""

import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaitcadence
from gaitcadence.cli import main
from gaitcadence.config import SETTINGS, PipelineConfig
from gaitcadence.io import load_trace_csv, read_tfr_f64le
from gaitcadence.pipeline import RunReport


FAST_FLAGS = ["--window-span-s", "8"]


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    csv_path = d / "walk.csv"
    labels_path = d / "walk_labels.csv"
    truth_path = d / "walk_truth.csv"
    code = main([
        "synth", "--duration", "28", "--fs", "50", "--bout", "2:26",
        "--if-hz", "1.0", "--seed", "3",
        "--out-csv", str(csv_path), "--out-labels", str(labels_path),
        "--out-truth", str(truth_path),
    ])
    assert code == 0
    return d, csv_path, labels_path, truth_path


def assert_data_error(code, capsys, path):
    """Exit 2 with a one-line ``data error`` naming ``path``, no traceback."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err
    assert "Traceback" not in err


class TestSynth:
    def test_writes_files(self, synth_files):
        _, csv_path, labels_path, truth_path = synth_files
        assert csv_path.read_text().startswith("t,x,y,z")
        assert labels_path.read_text().splitlines() == [
            "start_s,end_s,label", "2,26,1"]
        truth = truth_path.read_text().splitlines()
        assert truth[0] == "time_s,truth_if_hz,truth_cadence_hz"
        # outside the bout the truth columns are empty
        assert truth[1].endswith(",,")

    def test_ramp_and_multiple_bouts(self, tmp_path):
        code = main([
            "synth", "--duration", "60", "--fs", "50",
            "--bout", "2:26", "--bout", "30:58:3", "--if-ramp", "0.9:1.1",
            "--out-csv", str(tmp_path / "r.csv"),
            "--out-labels", str(tmp_path / "r_labels.csv"),
        ])
        assert code == 0
        labels = (tmp_path / "r_labels.csv").read_text().splitlines()
        assert labels[1:] == ["2,26,1", "30,58,3"]

    def test_bad_bout_spec_is_config_error(self, tmp_path):
        code = main(["synth", "--bout", "nonsense",
                     "--out-csv", str(tmp_path / "x.csv"),
                     "--out-labels", str(tmp_path / "y.csv")])
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--bout", "2:26:9"],  # a label that run would reject
        ["--bout", "2:26:1.5"],
        ["--bout", "2::1"],
        ["--bout", "2:26:1:1"],
        ["--bout", "26:2"],
        ["--bout", "2:inf"],
        ["--bout", "2:20", "--bout", "10:26"],  # overlapping
        ["--alphas", "0.5,x"],
        ["--alphas", "0.5,,1.0"],
        ["--alphas", ""],
        ["--betas", "0.1"],  # two alphas by default
        ["--betas", "0.1,y"],
        ["--if-ramp", "0.9"],
        ["--if-ramp", "0.9:x"],
        ["--if-ramp", "0.9:1.0:1.1"],
    ], ids=" ".join)
    def test_bad_option_value_is_config_error(self, tmp_path, flags):
        out_csv, out_labels = tmp_path / "x.csv", tmp_path / "y.csv"
        code = main(["synth", "--duration", "28", "--fs", "50", *flags,
                     "--out-csv", str(out_csv), "--out-labels", str(out_labels)])
        assert code == 1
        assert not out_csv.exists() and not out_labels.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", [
        "--duration", "--fs", "--if-hz", "--alpha0", "--amp", "--snr-db",
        "--rho", "--baseline"])
    def test_non_finite_float_option_is_config_error(self, tmp_path, capsys,
                                                     option, value):
        out_csv, out_labels = tmp_path / "x.csv", tmp_path / "y.csv"
        code = main(["synth", "--duration", "28", "--fs", "50", option, value,
                     "--out-csv", str(out_csv), "--out-labels", str(out_labels)])
        assert code == 1
        assert f"'{option}'" in capsys.readouterr().err
        assert not out_csv.exists() and not out_labels.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option,form", [
        ("--alphas", "{},1"), ("--betas", "{},1"), ("--if-ramp", "{}:1")])
    def test_non_finite_list_field_is_config_error(self, tmp_path, capsys,
                                                   option, form, value):
        out_csv, out_labels = tmp_path / "x.csv", tmp_path / "y.csv"
        code = main(["synth", "--duration", "28", "--fs", "50",
                     option, form.format(value),
                     "--out-csv", str(out_csv), "--out-labels", str(out_labels)])
        assert code == 1
        assert f"error: {option} expects " in capsys.readouterr().err
        assert not out_csv.exists() and not out_labels.exists()

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_snr_beyond_float_range_is_config_error(self, tmp_path, capsys,
                                                    value):
        # 10 ** (snr / 10) overflows at +1e308 and underflows to 0 at -1e308.
        out_csv, out_labels = tmp_path / "x.csv", tmp_path / "y.csv"
        code = main(["synth", "--duration", "28", "--fs", "50",
                     "--snr-db", value,
                     "--out-csv", str(out_csv), "--out-labels", str(out_labels)])
        assert code == 1
        assert "error: --snr-db " in capsys.readouterr().err
        assert not out_csv.exists() and not out_labels.exists()

    def test_too_many_samples_is_config_error(self, tmp_path, capsys):
        # 2.8e10 samples: refused before the recording is allocated.
        out_csv, out_labels = tmp_path / "x.csv", tmp_path / "y.csv"
        code = main(["synth", "--fs", "1e9", "--duration", "28",
                     "--out-csv", str(out_csv), "--out-labels", str(out_labels)])
        assert code == 1
        assert "28 s at 1e+09 Hz" in capsys.readouterr().err
        assert not out_csv.exists() and not out_labels.exists()


class TestRun:
    def test_full_run(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out)]
                    + FAST_FLAGS)
        assert code == 0
        trace, labels = load_trace_csv(out / "cadence.csv")
        assert np.all(labels == 1)
        interior = (trace.times >= 6.0) & (trace.times <= 22.0)
        assert abs(trace.cadence_hz[interior].mean() - 2.0) < 0.06
        assert (out / "summary.csv").exists()
        assert (out / "report.json").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["run", str(tmp_path / "nope.csv"),
                     str(tmp_path / "nope_labels.csv"),
                     "-o", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("which", ["input", "labels"])
    def test_directory_path_is_data_error(self, synth_files, tmp_path, capsys,
                                          which):
        _, csv_path, labels_path, _ = synth_files
        paths = {"input": str(csv_path), "labels": str(labels_path)}
        paths[which] = str(tmp_path)
        code = main(["run", paths["input"], paths["labels"],
                     "-o", str(tmp_path / "out")] + FAST_FLAGS)
        assert_data_error(code, capsys, tmp_path)

    def test_non_finite_sample_is_data_error(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        lines = csv_path.read_text().splitlines()
        t, _, y, z = lines[500].split(",")
        lines[500] = ",".join([t, "nan", y, z])
        bad_csv = tmp_path / "nan.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        code = main(["run", str(bad_csv), str(labels_path),
                     "-o", str(tmp_path / "out")] + FAST_FLAGS)
        assert code == 2

    def test_overflowing_magnitude_is_data_error(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        lines = csv_path.read_text().splitlines()
        for i in range(1, len(lines)):
            t, _, y, z = lines[i].split(",")
            lines[i] = ",".join([t, "1.5e160", y, z])
        bad_csv = tmp_path / "huge.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", str(bad_csv), str(labels_path), "-o", str(out)]
                        + FAST_FLAGS)
        assert code == 2
        [bout] = json.loads((out / "report.json").read_text())["bouts"]
        assert re.fullmatch(r"sample 0: the vector magnitude .* overflows float64",
                            bout["message"])

    def test_overflowing_magnitude_fails_tfr_as_it_fails_run(
            self, synth_files, tmp_path, capsys):
        # Sample 1000 is sample 900 of the 2-26 s range.
        _, csv_path, labels_path, _ = synth_files
        lines = csv_path.read_text().splitlines()
        t, _, y, z = lines[1001].split(",")
        lines[1001] = ",".join([t, "1.5e160", y, z])
        bad_csv = tmp_path / "huge.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["run", str(bad_csv), str(labels_path), "-o", str(out),
                     "--hop", "10"] + FAST_FLAGS)
        assert code == 2
        [bout] = json.loads((out / "report.json").read_text())["bouts"]
        assert bout["message"].startswith("sample 900: ")
        capsys.readouterr()
        grid = tmp_path / "x.f64le"
        code = main(["tfr", str(bad_csv), "-o", str(grid), "--start", "2",
                     "--end", "26", "--hop", "10"] + FAST_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {bout['message']}" in err.splitlines()
        assert not grid.exists()

    @pytest.mark.parametrize("row", ["2,inf,1", "-inf,5,1"])
    def test_non_finite_label_bound_is_data_error(self, synth_files, tmp_path,
                                                  row):
        _, csv_path, _, _ = synth_files
        labels = tmp_path / "labels.csv"
        labels.write_text(f"start_s,end_s,label\n{row}\n")
        code = main(["run", str(csv_path), str(labels),
                     "-o", str(tmp_path / "out")] + FAST_FLAGS)
        assert code == 2

    def test_bad_config_file_is_config_error(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = main(["run", str(csv_path), str(labels_path),
                     "-o", str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 1

    def test_unknown_location_in_config_fails_before_output(self, synth_files,
                                                            tmp_path):
        _, csv_path, labels_path, _ = synth_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("location = foo\n")
        out = tmp_path / "o"
        code = main(["run", str(csv_path), str(labels_path),
                     "-o", str(out), "--config", str(cfg)])
        assert code == 1
        assert not out.exists()

    def test_non_finite_lambda_is_config_error(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out),
                     "--lambda", "nan"] + FAST_FLAGS)
        assert code == 1
        assert not (out / "cadence.csv").exists()

    @pytest.mark.parametrize("sigma", ["2e154", "1e-200"])
    def test_sigma_whose_square_leaves_float64_is_config_error(
            self, synth_files, tmp_path, capsys, sigma):
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out),
                     "--sigma", sigma] + FAST_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma" in err and "Traceback" not in err
        assert not (out / "cadence.csv").exists()

    def test_overflowing_gamma_fails_the_bout(self, synth_files, tmp_path,
                                              capsys):
        # |V|**gamma overflows, so the band energy is NaN.
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", str(csv_path), str(labels_path), "-o", str(out),
                         "--gamma", "1e300"] + FAST_FLAGS)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        [bout] = json.loads((out / "report.json").read_text())["bouts"]
        assert bout["status"] == "error"
        assert bout["message"] == "ridge block total is not finite (nan)"

    def test_band_above_nyquist_is_config_error(self, synth_files, tmp_path):
        # The recording is sampled at 50 Hz: Nyquist is 25 Hz.
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out),
                     "--band", "0.3:30"] + FAST_FLAGS)
        assert code == 1
        assert not (out / "cadence.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--fft-pad", "64"],  # shorter than the 601-sample window
        ["--window-span-s", "0.001"],  # under 3 samples
        ["--window-span-s", "1e300"],  # too many samples to allocate
        ["--window-span-s", "1e308"],  # span x fs overflows to inf
        ["--window-span-s", "100"],  # longer than the 28 s recording
    ])
    def test_window_that_cannot_fit_is_config_error(self, synth_files,
                                                    tmp_path, flags):
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out)]
                    + flags)
        assert code == 1
        assert not (out / "cadence.csv").exists()

    @pytest.mark.parametrize("band", ["0.3", "0.3:x", "0.3:1:2", ":", "a:b",
                                      "nan:1"])
    def test_bad_band_is_config_error(self, synth_files, tmp_path, band):
        _, csv_path, labels_path, _ = synth_files
        out = tmp_path / "out"
        code = main(["run", str(csv_path), str(labels_path), "-o", str(out),
                     "--band", band] + FAST_FLAGS)
        assert code == 1
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self):
        assert main(["run", "--frobnicate"]) == 1


class TestTfrCommand:
    def test_export_f64le(self, synth_files, tmp_path):
        _, csv_path, _, _ = synth_files
        out = tmp_path / "grid.f64le"
        code = main(["tfr", str(csv_path), "--kind", "dssst", "--format",
                     "f64le", "-o", str(out), "--hop", "10",
                     "--start", "2", "--end", "26"] + FAST_FLAGS)
        assert code == 0
        mat, meta = read_tfr_f64le(out)
        assert meta["kind"] == "dssst"
        assert meta["hop"] == 10
        assert mat.shape[0] == meta["n_frames"]

    @pytest.mark.parametrize("span", ["1e300", "100"])
    def test_window_longer_than_recording_is_config_error(self, synth_files,
                                                          tmp_path, span):
        _, csv_path, _, _ = synth_files
        out = tmp_path / "x.csv"
        code = main(["tfr", str(csv_path), "-o", str(out),
                     "--window-span-s", span])
        assert code == 1
        assert not out.exists()

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        code = main(["tfr", str(tmp_path), "-o", str(tmp_path / "x.csv")])
        assert_data_error(code, capsys, tmp_path)

    def test_empty_range_is_data_error(self, synth_files, tmp_path):
        _, csv_path, _, _ = synth_files
        code = main(["tfr", str(csv_path), "-o", str(tmp_path / "x.csv"),
                     "--start", "20", "--end", "10"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--start", "nan"], ["--start", "inf"], ["--end", "-inf"]],
        ids=" ".join)
    def test_non_finite_range_is_config_error(self, synth_files, tmp_path,
                                              flags):
        _, csv_path, _, _ = synth_files
        out = tmp_path / "x.csv"
        code = main(["tfr", str(csv_path), "-o", str(out), *flags]
                    + FAST_FLAGS)
        assert code == 1
        assert not out.exists()

    def test_clipped_range_warns(self, synth_files, tmp_path, caplog):
        # The recording is 28 s long: 2-40 s is clipped to 2-28 s.
        _, csv_path, _, _ = synth_files
        for end, clipped in (("40", True), ("26", False)):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                code = main(["tfr", str(csv_path), "-o", str(tmp_path / "x.csv"),
                             "--hop", "10", "--start", "2", "--end", end]
                            + FAST_FLAGS)
            assert code == 0
            warned = [r.getMessage() for r in caplog.records
                      if "clipped" in r.getMessage()]
            assert warned == ([f"[2.0, {end}.0] runs past the 28 s recording; "
                               "clipped to it"] if clipped else [])

    @pytest.mark.parametrize("start, end", [("2", "26"), ("10", "40")])
    @pytest.mark.parametrize("kind", ["stft", "dssst"])
    def test_same_bytes_as_run_export(self, synth_files, tmp_path, caplog,
                                      kind, start, end):
        # The recording is 28 s long: 10-40 s is clipped to 10-28 s.
        _, csv_path, _, _ = synth_files
        labels = tmp_path / "labels.csv"
        labels.write_text(f"start_s,end_s,label\n{start},{end},1\n")
        grid = tmp_path / "tfr.f64le"
        with caplog.at_level(logging.WARNING):
            assert main(["run", str(csv_path), str(labels),
                         "-o", str(tmp_path / "run"), "--export-tfr", kind,
                         "--export-format", "f64le", "--hop", "10"]
                        + FAST_FLAGS) == 0
            assert main(["tfr", str(csv_path), "-o", str(grid), "--kind", kind,
                         "--format", "f64le", "--start", start, "--end", end,
                         "--hop", "10"] + FAST_FLAGS) == 0
        exported = tmp_path / "run" / f"tfr_bout01_{kind}.f64le"
        assert grid.read_bytes() == exported.read_bytes()
        note = (f"[{float(start)}, {float(end)}] runs past the 28 s "
                "recording; clipped to it")
        warned = [r.getMessage() for r in caplog.records
                  if "clipped" in r.getMessage()]
        assert warned == ([f"bout 1 {note}", note] if end == "40" else [])

    def test_band_above_nyquist_fails_before_preprocess(self, synth_files,
                                                        tmp_path, monkeypatch):
        # The recording is sampled at 50 Hz: Nyquist is 25 Hz.
        _, csv_path, _, _ = synth_files
        calls = []
        monkeypatch.setattr("gaitcadence.cli.range_signal",
                            lambda *a, **k: calls.append(a))
        out = tmp_path / "x.csv"
        code = main(["tfr", str(csv_path), "-o", str(out),
                     "--band", "0.3:30"] + FAST_FLAGS)
        assert code == 1
        assert calls == []
        assert not out.exists()


# A value other than the default for every setting that has its own flag.
SETTING_VALUES = {"window_span_s": "8", "sigma": "0.2", "gamma": "0.4",
                  "upsilon": "1e-8", "lambda": "2", "hop": "5",
                  "fft_pad": "4096", "fs": "50", "location": "wr"}


class TestSettingFlags:
    @pytest.fixture
    def run_configs(self, monkeypatch, tmp_path):
        """The config each ``run`` call hands to ``run_pipeline``."""
        seen = []

        def fake_run_pipeline(cfg, *args, **kwargs):
            seen.append(cfg)
            return RunReport(bouts=[], outputs=[], warnings=[], config={})

        monkeypatch.setattr("gaitcadence.cli.run_pipeline", fake_run_pipeline)
        return seen

    def _run(self, tmp_path, flags):
        return main(["run", "in.csv", "labels.csv", "-o", str(tmp_path / "out"),
                     *flags])

    @pytest.mark.parametrize(
        "key", [k for k in SETTINGS if not k.startswith("band_")])
    def test_flag_and_config_key_set_the_same_field(self, run_configs,
                                                    tmp_path, key):
        value = SETTING_VALUES[key]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        assert self._run(tmp_path, ["--" + key.replace("_", "-"), value]) == 0
        assert self._run(tmp_path, ["--config", str(cfg_file)]) == 0
        from_flag, from_file = run_configs
        assert from_flag == from_file
        field = SETTINGS[key][0]
        assert getattr(from_flag, field) != getattr(PipelineConfig(), field)

    def test_band_flag_sets_both_band_keys(self, run_configs, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("band_lo_hz = 0.5\nband_hi_hz = 2\n")
        assert self._run(tmp_path, ["--band", "0.5:2"]) == 0
        assert self._run(tmp_path, ["--config", str(cfg_file)]) == 0
        from_flag, from_file = run_configs
        assert from_flag == from_file
        assert from_flag.band_hz == (0.5, 2.0)


class TestCompare:
    def test_roundtrip_agreement(self, synth_files, tmp_path):
        _, csv_path, labels_path, _ = synth_files
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", str(csv_path), str(labels_path),
                         "-o", str(out)] + FAST_FLAGS) == 0
        ba_csv = tmp_path / "ba.csv"
        code = main(["compare", str(out_a / "cadence.csv"),
                     str(out_b / "cadence.csv"), "-o", str(ba_csv), "--ci"])
        assert code == 0
        lines = ba_csv.read_text().splitlines()
        assert lines[0].startswith("mean_diff,sd_diff,loa_low,loa_high,n")
        row = lines[1].split(",")
        assert float(row[0]) == 0.0  # identical runs agree exactly
        assert float(row[1]) == 0.0

    def test_directory_trace_is_data_error(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path), str(tmp_path)])
        assert_data_error(code, capsys, tmp_path)

    @pytest.mark.parametrize("rows, line", [
        (["0,1,2,1", "0.1,1,nan,1", "0.2,1,2,1"], 3),
        (["0,1,2,1", "0.1,1,inf,1", "0.2,1,2,1"], 3),
        (["0,1,2,1", "0.2,1,2,1", "0.1,1,2,1"], 4),
    ], ids=["nan", "inf", "out of order"])
    def test_bad_trace_is_data_error(self, tmp_path, capsys, rows, line):
        header = "time_s,if_hz,cadence_hz,bout_label\n"
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(header + "0,1,2,1\n0.1,1,2,1\n0.2,1,2,1\n")
        bad.write_text(header + "".join(row + "\n" for row in rows))
        code = main(["compare", str(good), str(bad)])
        assert_data_error(code, capsys, f"{bad}:{line}")

    def test_version_flag(self):
        assert main(["--version"]) == 0


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(gaitcadence.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_loads_no_scipy():
    code = ("import sys, gaitcadence.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_src_env())
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_synth():
    # Only the synth command needs the synthesis model.
    code = ("import sys, gaitcadence.cli; "
            "print('gaitcadence.synth' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_src_env())
    assert out.stdout.strip() == "False"


def test_run_and_tfr_work_without_scipy(synth_files, tmp_path):
    # Any import of scipy in the child raises ImportError.
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from gaitcadence.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    _, csv_path, labels_path, _ = synth_files
    commands = [
        ["run", str(csv_path), str(labels_path), "-o", str(tmp_path / "out")],
        ["tfr", str(csv_path), "--kind", "stct", "--format", "f64le",
         "-o", str(tmp_path / "stct.f64le"), "--hop", "10"],
    ]
    for args in commands:
        proc = subprocess.run([sys.executable, "-c", code, *args, *FAST_FLAGS],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "cadence.csv").exists()
    assert (tmp_path / "stct.f64le").exists()
