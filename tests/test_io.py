"""CSV ingestion, trace round trips, and TFR export formats."""

import contextlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaitcadence import io
from gaitcadence.analysis import BoutInterval
from gaitcadence.errors import DataFormatError
from gaitcadence.io import (check_bout_spans, export_tfr, load_labels_csv,
                            load_trace_csv, load_triaxial_csv, read_tfr_f64le,
                            write_bland_altman_csv, write_labels_csv,
                            write_trace_csv, write_triaxial_csv)
from gaitcadence.analysis import bland_altman
from gaitcadence.ridge import CadenceTrace
from gaitcadence.signal import TriaxialRecord
from gaitcadence.tfr import TFRGrid


class TestTriaxialCsv:
    def test_fs_from_time_column(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("t,x,y,z\n0,1,0,0\n0.01,2,0,0\n0.02,3,0,0\n")
        rec = load_triaxial_csv(p)
        assert rec.fs == pytest.approx(100.0)
        np.testing.assert_allclose(rec.x, [1, 2, 3])

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y\n0,1,0\n")
        with pytest.raises(DataFormatError):
            load_triaxial_csv(p)

    def test_row_width_error_has_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y,z\n0,1,0,0\n0.01,2,0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_triaxial_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y,z\n0,1,0,zero\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_triaxial_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.csv"
        p.write_text(f"t,x,y,z\n0,1,0,0\n0.01,1,{bad},0\n0.02,1,0,0\n")
        with pytest.raises(DataFormatError, match=":3: non-finite"):
            load_triaxial_csv(p)

    def test_non_uniform_sampling_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x,y,z\n0,1,0,0\n0.01,1,0,0\n0.05,1,0,0\n0.06,1,0,0\n")
        with pytest.raises(DataFormatError, match="non-uniform"):
            load_triaxial_csv(p)

    def test_headerless_three_column_needs_fs(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("x,y,z\n1,0,0\n2,0,0\n")
        with pytest.raises(DataFormatError):
            load_triaxial_csv(p)
        rec = load_triaxial_csv(p, fs_hint=80.0, location="wr")
        assert rec.fs == 80.0 and rec.location == "wr"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        rec = TriaxialRecord(x=rng.normal(size=50), y=rng.normal(size=50),
                             z=rng.normal(size=50), fs=100.0, location="hi")
        p = tmp_path / "rt.csv"
        write_triaxial_csv(p, rec)
        back = load_triaxial_csv(p, location="hi")
        assert back.fs == pytest.approx(100.0, rel=1e-6)
        assert len(back) == 50
        np.testing.assert_allclose(back.x, rec.x, rtol=1e-10)
        np.testing.assert_allclose(back.z, rec.z, rtol=1e-10)


    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=3, max_size=3), min_size=1, max_size=8),
           fmt=st.sampled_from(["%.12g", "repr"]),
           eol=st.sampled_from(["\n", "\r\n"]),
           blank=st.sampled_from([None, "", "   "]))
    def test_fast_parse_equals_float_or_falls_back(self, tmp_path_factory, rows,
                                                   fmt, eol, blank):
        text = [[repr(v) if fmt == "repr" else fmt % v for v in row]
                for row in rows]
        lines = ["x,y,z"] + [",".join(row) for row in text]
        if blank is not None:
            lines.insert(len(lines) // 2 + 1, blank)
        p = tmp_path_factory.mktemp("csv") / "rec.csv"
        p.write_bytes((eol.join(lines) + eol).encode())
        expected = np.array([[float(v) for v in row] for row in text])
        names, data = io._parse_floats(p, (["x", "y", "z"],))
        assert names == ["x", "y", "z"]
        if blank != "   ":  # loadtxt reads a whitespace-only line as a field
            assert data is not None
        if data is not None:
            assert data.tobytes() == expected.tobytes()
        rec = load_triaxial_csv(p, fs_hint=50.0)
        got = np.column_stack([rec.x, rec.y, rec.z])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("field", ["1_0", '"10"'])
    def test_spellings_only_float_reads_fall_back(self, tmp_path, field):
        p = tmp_path / "rec.csv"
        p.write_text(f"t,x,y,z\n0,1,2,3\n0.01,{field},2,3\n")
        assert io._parse_floats(p, (["t", "x", "y", "z"],))[1] is None
        rec = load_triaxial_csv(p)
        assert rec.x.tolist() == [1.0, 10.0]

    @pytest.mark.parametrize("time", [True, False], ids=["t", "no-t"])
    @pytest.mark.parametrize("field", ["10", "1_0"], ids=["loadtxt", "per-row"])
    def test_axes_hold_no_parsed_matrix(self, tmp_path, time, field):
        # "1_0" takes the per-row path. Each axis owns contiguous data, so the
        # parsed (rows, columns) matrix, time column included, is freed.
        header, rows = "x,y,z", [["1", "2", "3"], [field, "5", "6"]]
        if time:
            header = "t," + header
            rows = [[str(i / 100)] + row for i, row in enumerate(rows)]
        p = tmp_path / "rec.csv"
        p.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        parsed = io._parse_floats(p, (header.split(","),))[1]
        assert (parsed is None) == (field == "1_0")
        rec = load_triaxial_csv(p, fs_hint=100.0)
        axes = (rec.x, rec.y, rec.z)
        assert [a.tolist() for a in axes] == [[1, 10], [2, 5], [3, 6]]
        for a in axes:
            assert a.flags.c_contiguous and a.flags.owndata
        for a, b in itertools.combinations(axes, 2):
            assert not np.may_share_memory(a, b)

    @pytest.mark.parametrize("text", ["t,x,y,z\n", "t,x,y,z\n\n\n",
                                      "t,x,y,z\n0,1,2\n"])
    def test_no_row_or_narrow_rows_fall_back(self, tmp_path, text):
        p = tmp_path / "rec.csv"
        p.write_text(text)
        assert io._parse_floats(p, (["t", "x", "y", "z"],))[1] is None
        with pytest.raises(DataFormatError, match="no data rows|:2: expected 4"):
            load_triaxial_csv(p)


class TestLabelsCsv:
    def test_parse_and_sort(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("start_s,end_s,label\n35,50,3\n0,30,1\n")
        bouts = load_labels_csv(p)
        assert [(b.start_s, b.end_s, b.label) for b in bouts] == [
            (0.0, 30.0, 1), (35.0, 50.0, 3)]

    def test_overlap_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("start_s,end_s,label\n0,30,1\n20,40,2\n")
        with pytest.raises(DataFormatError, match="overlap"):
            load_labels_csv(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("start_s,end_s,label\n0,30,9\n")
        with pytest.raises(DataFormatError):
            load_labels_csv(p)

    @pytest.mark.parametrize("row", ["2,inf,1", "-inf,5,1", "nan,5,1"])
    def test_non_finite_bound_rejected(self, tmp_path, row):
        p = tmp_path / "labels.csv"
        p.write_text(f"start_s,end_s,label\n0,1,1\n{row}\n")
        with pytest.raises(DataFormatError, match=r"labels\.csv:3: .*finite"):
            load_labels_csv(p)

    def test_short_bout_warning(self):
        warnings = check_bout_spans([BoutInterval(0.0, 5.0, 1)], 12.0)
        assert len(warnings) == 1 and "shorter" in warnings[0]
        assert check_bout_spans([BoutInterval(0.0, 30.0, 1)], 12.0) == []

    def test_round_trip(self, tmp_path):
        bouts = [BoutInterval(0.0, 30.0, 1), BoutInterval(35.5, 50.25, 3)]
        p = tmp_path / "labels.csv"
        write_labels_csv(p, bouts)
        back = load_labels_csv(p)
        assert [(b.start_s, b.end_s, b.label) for b in back] == [
            (0.0, 30.0, 1), (35.5, 50.25, 3)]


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        times = 2.0 + 0.01 * np.arange(25)
        if_hz = np.linspace(0.9, 1.1, 25)
        trace = CadenceTrace(times=times, if_hz=if_hz, cadence_hz=2 * if_hz,
                             frame_dt=0.01)
        labels = np.ones(25, dtype=int)
        p = tmp_path / "trace.csv"
        write_trace_csv(p, trace, labels)
        back, back_labels = load_trace_csv(p)
        np.testing.assert_allclose(back.times, times, rtol=1e-10)
        np.testing.assert_allclose(back.cadence_hz, 2 * if_hz, rtol=1e-10)
        np.testing.assert_array_equal(back_labels, labels)
        assert back.frame_dt == pytest.approx(0.01)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("a,b,c,d\n0,1,2,1\n")
        with pytest.raises(DataFormatError):
            load_trace_csv(p)

    @pytest.mark.parametrize("row", ["0.2,1,nan,1", "0.2,inf,2,1",
                                     "nan,1,2,1", "0.2,1,-inf,1"])
    def test_non_finite_value_names_its_line(self, tmp_path, row):
        p = tmp_path / "trace.csv"
        p.write_text("time_s,if_hz,cadence_hz,bout_label\n"
                     f"0,1,2,1\n0.1,1,2,1\n{row}\n0.3,1,2,1\n")
        with pytest.raises(DataFormatError, match=f"{p}:4: non-finite value"):
            load_trace_csv(p)

    @pytest.mark.parametrize("times", [(0.0, 0.2, 0.1), (0.0, 0.1, 0.1)])
    def test_times_must_increase(self, tmp_path, times):
        p = tmp_path / "trace.csv"
        p.write_text("time_s,if_hz,cadence_hz,bout_label\n"
                     + "".join(f"{t},1,2,1\n" for t in times))
        with pytest.raises(DataFormatError,
                           match=f"{p}:4: .*strictly increasing"):
            load_trace_csv(p)


class TestCsvText:
    """Tables carry the text of a per-value ``{:.12g}`` loop."""

    VALUES = np.array([0.0, -0.0, 1 / 3, -2.5e-7, 1e16, 123456789012.5,
                       5e-324, 1.7976931348623157e308, np.nan, np.inf,
                       -np.inf, 2.0])

    def test_trace_rows(self, tmp_path):
        v = self.VALUES
        times = 1e9 + np.arange(v.size) / 3
        trace = CadenceTrace(times=times, if_hz=v, cadence_hz=-v[::-1],
                             frame_dt=1 / 3)
        labels = np.arange(v.size) % 4
        p = tmp_path / "trace.csv"
        write_trace_csv(p, trace, labels)
        assert p.read_text().splitlines()[1:] == [
            f"{t:.12g},{f:.12g},{c:.12g},{lab}"
            for t, f, c, lab in zip(times, v, -v[::-1], labels)]

    def test_tfr_rows(self, tmp_path):
        mag = self.VALUES.reshape(2, 6)
        p = tmp_path / "grid.csv"
        export_tfr(TFRGrid(mag, fs=10.0, fft_half=5), p, "csv")
        assert p.read_text().splitlines()[2:] == [
            ",".join(f"{x:.12g}" for x in np.abs(row)) for row in mag]


class TestBlandAltmanCsv:
    def test_columns(self, tmp_path):
        base = np.full(10, 2.0)
        a = CadenceTrace(times=0.1 * np.arange(10), if_hz=base / 2,
                         cadence_hz=base, frame_dt=0.1)
        b = CadenceTrace(times=0.1 * np.arange(10), if_hz=base / 2 + 0.05,
                         cadence_hz=base + 0.1, frame_dt=0.1)
        stats = bland_altman(a, b)
        p = tmp_path / "ba.csv"
        write_bland_altman_csv(p, stats)
        lines = p.read_text().splitlines()
        assert lines[0] == "mean_diff,sd_diff,loa_low,loa_high,n"
        assert lines[1].split(",")[4] == "10"
        write_bland_altman_csv(p, stats, with_ci=True)
        assert p.read_text().splitlines()[0].endswith(
            "mean_ci_low,mean_ci_high,loa_ci_margin")


class TestExportTfr:
    def make_grid(self, mag, fs=10.0, kind="dssst"):
        return TFRGrid(np.asarray(mag, dtype=float), fs=fs,
                       fft_half=np.asarray(mag).shape[1] - 1, kind=kind)

    def test_csv_layout(self, tmp_path):
        tfr = self.make_grid([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        p = tmp_path / "grid.csv"
        export_tfr(tfr, p, "csv")
        lines = p.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 2
        assert all(len(ln.split(",")) == 3 for ln in data)
        assert any("kind=dssst" in ln for ln in header)

    def test_pgm_constant_matrix_is_white(self, tmp_path):
        tfr = self.make_grid(np.full((4, 3), 7.0))
        p = tmp_path / "grid.pgm"
        export_tfr(tfr, p, "pgm")
        raw = p.read_bytes()
        header, pixels = raw.split(b"\n", 1)
        assert header == b"P5 4 3 255"
        assert set(pixels) == {255}

    def test_pgm_orientation_highest_bin_on_top(self, tmp_path):
        mag = np.zeros((2, 3))
        mag[:, 2] = 100.0  # all energy in the top frequency bin
        p = tmp_path / "grid.pgm"
        export_tfr(self.make_grid(mag), p, "pgm")
        header, pixels = p.read_bytes().split(b"\n", 1)
        rows = [pixels[i * 2 : (i + 1) * 2] for i in range(3)]
        assert set(rows[0]) == {255}  # top row = bin 2
        assert set(rows[1]) == {0}
        assert set(rows[2]) == {0}

    def test_pgm_quantile_clipping(self, tmp_path):
        rng = np.random.default_rng(42)
        mag = rng.uniform(0.0, 1.0, size=(50, 40))
        mag[0, 0] = 1e6  # outlier must saturate, not crush the scale
        p = tmp_path / "grid.pgm"
        export_tfr(self.make_grid(mag), p, "pgm")
        _, pixels = p.read_bytes().split(b"\n", 1)
        vals = np.frombuffer(pixels, dtype=np.uint8)
        assert vals.max() == 255
        assert np.mean(vals > 100) > 0.1  # scale set by the 99% quantile

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
        st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=60), st.integers(1, 8))
    def test_clip_level_is_numpys_quantile(self, values, rows_per_chunk):
        a = np.array(values).reshape(-1, 1)
        with chunk_rows(a, rows_per_chunk), np.errstate(invalid="ignore"):
            want = np.float64(np.quantile(np.abs(a), io.PGM_QUANTILE))
            got = np.float64(io._clip_level(a))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [101, 4097, 37 * 4097, 377 * 4097])
    def test_clip_level_on_grid_sized_input(self, n):
        # Rows of up to 4097 bins; 377 rows are 48 chunks of 8, the last
        # one a single row.
        rng = np.random.default_rng(n)
        a = rng.exponential(size=n)
        a[rng.uniform(size=n) < 0.3] = 0.0  # ties, as below-threshold cells
        a = a.reshape(-1, min(n, 4097))
        want = np.float64(np.quantile(a, io.PGM_QUANTILE))
        assert np.float64(io._clip_level(a)).tobytes() == want.tobytes()

    def test_pgm_pixels_follow_the_quantile_formula(self, tmp_path):
        rng = np.random.default_rng(44)
        mag = rng.integers(0, 50, size=(37, 29)).astype(float) / 7.0  # ties
        p = tmp_path / "grid.pgm"
        export_tfr(self.make_grid(mag), p, "pgm")
        q = np.quantile(mag, io.PGM_QUANTILE)
        img = np.round(255.0 * np.minimum(mag, q) / q).astype(np.uint8)
        _, pixels = p.read_bytes().split(b"\n", 1)
        assert pixels == img.T[::-1, :].tobytes()

    def test_f64le_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(43)
        mag = rng.normal(size=(6, 9)) ** 2
        tfr = self.make_grid(mag, fs=123.5, kind="stft")
        p = tmp_path / "grid.f64le"
        export_tfr(tfr, p, "f64le")
        back, meta = read_tfr_f64le(p)
        assert back.tobytes() == mag.astype("<f8").tobytes()
        assert meta["fs"] == 123.5
        assert meta["kind"] == "stft"
        assert meta["fft_half"] == 8

    def test_unknown_format_rejected(self, tmp_path):
        tfr = self.make_grid([[1.0, 2.0]])
        with pytest.raises(Exception):
            export_tfr(tfr, tmp_path / "x.bin", "npz")

    @pytest.mark.parametrize("tail", [0, 3, 8])
    def test_truncated_f64le_names_file_and_byte_counts(self, tmp_path, tail):
        # A whole value (8 bytes) or part of one (3 bytes) missing, or none.
        p = tmp_path / "grid.f64le"
        export_tfr(self.make_grid(np.ones((4, 5))), p, "f64le")
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - tail])
        if not tail:
            assert read_tfr_f64le(p)[0].tobytes() == np.ones((4, 5)).tobytes()
            return
        with pytest.raises(DataFormatError) as info:
            read_tfr_f64le(p)
        assert str(p) in str(info.value)
        assert "expected 160 bytes" in str(info.value)
        assert f"found {160 - tail}" in str(info.value)

    @pytest.mark.parametrize("case", ["pgm", "csv", "no n_bins", "negative"])
    def test_malformed_f64le_header_names_file(self, tmp_path, case):
        p = tmp_path / "grid.f64le"
        headers = {"no n_bins": {"n_frames": 4},
                   "negative": {"n_frames": -2, "n_bins": -1}}
        if case in headers:
            header = json.dumps(headers[case]).encode("ascii")
            p.write_bytes(header + b"\n" + bytes(16))
        else:
            export_tfr(self.make_grid(np.ones((4, 5))), p, case)
        with pytest.raises(DataFormatError, match="n_frames") as info:
            read_tfr_f64le(p)
        assert str(p) in str(info.value)


@contextlib.contextmanager
def chunk_rows(values, rows):
    """Stream exports of ``values``' width in chunks of ``rows`` rows."""
    size = 8 * values.shape[1] * rows
    with mock.patch.object(io, "_EXPORT_CHUNK_BYTES", size):
        yield


def reference_export(tfr, path, fmt):
    """The whole-grid exporter: the magnitude matrix, its uint8 image and its
    raw bytes each built in one piece, the clip level by ``np.quantile``."""
    mag = np.abs(tfr.values).astype(np.float64, copy=False)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# kind={tfr.kind} fs={tfr.fs:.12g} "
                     f"fft_half={tfr.fft_half} hop={tfr.hop} "
                     f"t0={tfr.t0:.12g} n_frames={mag.shape[0]}\n")
            fh.write("# columns: frequency bins 0..M at m*fs/(2M) Hz; "
                     "rows: frames\n")
            np.savetxt(fh, mag, fmt="%.12g", delimiter=",")
    elif fmt == "pgm":
        q = float(np.quantile(mag, io.PGM_QUANTILE))
        if q <= 0:
            img = np.zeros(mag.shape, dtype=np.uint8)
        else:
            img = np.round(255.0 * np.minimum(mag, q) / q).astype(np.uint8)
        img = img.T[::-1, :]
        with open(path, "wb") as fh:
            fh.write(f"P5 {img.shape[1]} {img.shape[0]} 255\n".encode("ascii"))
            fh.write(img.tobytes())
    else:
        meta = {"n_frames": int(mag.shape[0]), "n_bins": int(mag.shape[1]),
                "fs": tfr.fs, "fft_half": tfr.fft_half, "hop": tfr.hop,
                "t0": tfr.t0, "kind": tfr.kind, "dtype": "<f8"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("ascii"))
            fh.write(mag.astype("<f8").tobytes())


CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan]),
    st.floats(-1e6, 1e6))


@st.composite
def streamed_grids(draw):
    """A grid, real or complex, and the rows per export chunk."""
    n_rows, n_bins = draw(st.integers(1, 150)), draw(st.integers(1, 6))
    cells = hnp.arrays(np.float64, (n_rows, n_bins), elements=CELLS)
    values = draw(cells)
    if draw(st.booleans()):
        values = values.astype(np.complex128)
        values.imag = draw(cells)
    return values, draw(st.integers(1, 8))


class TestStreamedExport:
    """Exports streamed in row chunks equal the whole-grid exporter's bytes."""

    def assert_same_bytes(self, values, rows, tmp_dir):
        grid = TFRGrid(values, fs=10.0, fft_half=values.shape[1] - 1,
                       kind="dssst", t0=1.5)
        for fmt in ("csv", "pgm", "f64le"):
            got, want = tmp_dir / f"got.{fmt}", tmp_dir / f"want.{fmt}"
            with chunk_rows(values, rows), np.errstate(all="ignore"):
                export_tfr(grid, got, fmt)
                reference_export(grid, want, fmt)
            assert got.read_bytes() == want.read_bytes(), fmt

    @settings(max_examples=150, deadline=None)
    @given(streamed_grids())
    def test_equals_whole_grid_export(self, tmp_path_factory, grid):
        values, rows = grid
        self.assert_same_bytes(values, rows, tmp_path_factory.mktemp("export"))

    @pytest.mark.parametrize("n_rows, rows, what", [
        (5, 8, "fewer rows than one chunk"),
        (23, 4, "a ragged last chunk"),
        (400, 1, "a top tail longer than one chunk"),
    ])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_chunk_layouts(self, tmp_path, n_rows, rows, what, kind):
        n_bins = 3
        keep = n_rows * n_bins - int((n_rows * n_bins - 1) * io.PGM_QUANTILE)
        assert {"fewer rows than one chunk": n_rows < rows,
                "a ragged last chunk": n_rows % rows != 0,
                "a top tail longer than one chunk": keep > rows * n_bins}[what]
        rng = np.random.default_rng(n_rows)
        values = rng.integers(0, 9, size=(n_rows, n_bins)) / 7.0  # ties
        if kind == "complex":
            values = values - 1j * rng.exponential(size=values.shape)
        values[1, 1] = -0.0
        self.assert_same_bytes(values, rows, tmp_path)

    def test_clip_level_keeps_a_bounded_share_of_the_grid(self):
        # 100 chunks of 1000 cells: the kept values are cut back to the top
        # 1001 magnitudes whenever they reach 2002, not kept from every chunk.
        values = np.random.default_rng(8).exponential(size=(2000, 50))
        with chunk_rows(values, 20):
            tracemalloc.start()
            try:
                got = io._clip_level(values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == np.quantile(values, io.PGM_QUANTILE)
        assert peak < 0.25 * values.nbytes

    @pytest.mark.parametrize("fmt", ["pgm", "f64le", "csv"])
    def test_peak_memory_under_half_the_grid(self, tmp_path, fmt):
        # The CSV writer formats each value in Python, which is slow under
        # tracemalloc, so its grid is ten times narrower, streamed in chunks
        # of the default chunk's row count at 4097 bins. The other formats
        # run with the default chunk size.
        n_bins = 410 if fmt == "csv" else 4097
        values = np.random.default_rng(7).exponential(size=(377, n_bins))
        grid = TFRGrid(values, fs=10.0, fft_half=n_bins - 1, kind="dssst")
        rows = io._EXPORT_CHUNK_BYTES // (8 * 4097)
        with (chunk_rows(values, rows) if fmt == "csv"
              else contextlib.nullcontext()):
            tracemalloc.start()
            try:
                export_tfr(grid, tmp_path / f"grid.{fmt}", fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * values.nbytes
