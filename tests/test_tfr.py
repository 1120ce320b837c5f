"""Time-frequency transforms against direct-summation oracles."""

import collections
import functools
import itertools
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gaitcadence import tfr
from gaitcadence.config import PipelineConfig
from gaitcadence.errors import ParameterError, StructuralError
from gaitcadence.pipeline import analyze_signal
from gaitcadence.ridge import band_to_bins
from gaitcadence.signal import Signal, gaussian_window
from gaitcadence.synth import WaveShape
from gaitcadence.tfr import GRID_KINDS
from gaitcadence.tfr import (OmegaMatrix, TFRGrid, deshape, dsst, istct,
                             reassignment_operator, stct, stft, synchrosqueeze)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def make_tone(f0, fs=50.0, n=400, phase=0.3):
    t = np.arange(n) / fs
    return Signal(np.cos(2 * np.pi * f0 * t + phase), fs)


class TestStft:
    def test_zero_signal(self):
        s = Signal(np.zeros(64), fs=10.0)
        v = stft(s, gaussian_window(8, 0.15), 32)
        assert np.all(v.values == 0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(30, 200))
            K = int(rng.integers(4, 24))
            M = int(rng.integers(2 * K + 1, 4 * K + 2)) // 2 + 2 * K + 1
            s = Signal(rng.normal(size=n), fs=30.0)
            w = gaussian_window(K, 0.2)
            fast = stft(s, w, M).values
            direct = oracle.stft_direct_sum(s.samples, w.h, w.K, M)
            assert rel_frobenius(fast, direct) < 1e-12

    def test_derivative_window_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        s = Signal(rng.normal(size=100), fs=20.0)
        w = gaussian_window(10, 0.15)
        fast = stft(s, w, 40, derivative=True).values
        direct = oracle.stft_direct_sum(s.samples, w.dh, w.K, 40)
        assert rel_frobenius(fast, direct) < 1e-12

    def test_boundary_frame_zero_extension(self):
        rng = np.random.default_rng(2)
        s = Signal(rng.normal(size=40), fs=10.0)
        w = gaussian_window(6, 0.2)
        fast = stft(s, w, 16).values
        direct = oracle.stft_direct_sum(s.samples, w.h, w.K, 16)
        # first frame overhangs the start; must equal the zero-extended sum
        np.testing.assert_allclose(fast[0], direct[0], atol=1e-12)

    def test_tone_peaks_on_its_bin(self):
        fs, M = 50.0, 128
        b = 40  # zero-based bin
        s = make_tone(b * fs / (2 * M), fs=fs, n=500)
        v = stft(s, gaussian_window(32, 0.15), M)
        interior = np.abs(v.values[200:300])
        assert np.all(interior.argmax(axis=1) == b)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=(2, 120))
        w = gaussian_window(9, 0.2)
        a, b = 1.7, -0.4
        va = stft(Signal(a * x1 + b * x2, fs=10.0), w, 32).values
        vb = (a * stft(Signal(x1, fs=10.0), w, 32).values
              + b * stft(Signal(x2, fs=10.0), w, 32).values)
        assert rel_frobenius(va, vb) < 1e-12

    def test_hop_decimates_frames(self):
        s = Signal(np.random.default_rng(4).normal(size=100), fs=10.0)
        w = gaussian_window(5, 0.2)
        v1 = stft(s, w, 16)
        v4 = stft(s, w, 16, hop=4)
        np.testing.assert_array_equal(v4.values, v1.values[::4])
        assert v4.hop == 4

    def test_window_longer_than_dft_rejected(self):
        s = Signal(np.zeros(50), fs=10.0)
        with pytest.raises(ParameterError):
            stft(s, gaussian_window(20, 0.15), 19)  # 2M=38 < 41

    def test_zero_hop_rejected(self):
        s = Signal(np.zeros(50), fs=10.0)
        with pytest.raises(ParameterError, match="hop must be >= 1"):
            stft(s, gaussian_window(5, 0.2), 16, hop=0)


class TestStct:
    def test_constant_power_row(self):
        # |V|^gamma == c everywhere -> DFT mass 2M*c at quefrency 0
        M, gamma, c = 16, 0.5, 2.0
        vals = np.full((3, M + 1), c ** (1 / gamma), dtype=np.complex128)
        v = TFRGrid(vals, fs=10.0, fft_half=M)
        out = stct(v, gamma).values
        assert out[:, 0] == pytest.approx(2 * M * c)
        assert np.all(np.abs(out[:, 1:]) < 1e-9 * 2 * M * c)

    @pytest.mark.parametrize("p", [1, 3, 8, 16])
    def test_sampled_cosine_mass(self, p):
        # |V|^gamma = 1 + cos(2 pi p m / 2M) -> mass only at quefrencies 0, p
        M, gamma = 16, 0.3
        m = np.arange(M + 1)
        row = 1.0 + np.cos(2 * np.pi * p * m / (2 * M))
        vals = (row ** (1 / gamma))[None, :].astype(np.complex128)
        out = stct(TFRGrid(vals, fs=10.0, fft_half=M), gamma).values[0]
        expected = np.zeros(M + 1)
        expected[0] = 2 * M
        expected[p] = 2 * M if p == M else M  # p == M folds onto itself
        np.testing.assert_allclose(out, expected, atol=1e-9 * M)

    def test_all_zero_frame(self):
        v = TFRGrid(np.zeros((2, 17), dtype=np.complex128), fs=10.0, fft_half=16)
        assert np.all(stct(v, 0.3).values == 0.0)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(9)
        M = 24
        vals = rng.normal(size=(6, M + 1)) + 1j * rng.normal(size=(6, M + 1))
        v = TFRGrid(vals, fs=10.0, fft_half=M)
        out = stct(v, 0.3).values
        ref = oracle.cepstrum(np.abs(vals), 0.3)
        np.testing.assert_allclose(out, ref, atol=1e-10 * np.abs(ref).max())

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(4, 33)) + 1j * rng.normal(size=(4, 33))
        out = stct(TFRGrid(vals, fs=10.0, fft_half=32), 0.3).values
        assert np.all(out >= 0.0)

    def test_rejects_bad_gamma(self):
        v = TFRGrid(np.zeros((1, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        with pytest.raises(ParameterError):
            stct(v, 0.0)


class TestScipyReference:
    """The numpy.fft helpers against the scipy.fft calls they replace.

    The run's outputs are pinned to the bit, so equality here is exact.
    """

    @staticmethod
    def assert_bitwise_equal(out, ref):
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @pytest.mark.parametrize("n_rows", [1, 7, 8, 9, 15, 16, 17, 250])
    @pytest.mark.parametrize("width", [2, 3, 17, 4097])
    def test_stct_rows_equal_dct_type_1(self, width, n_rows, gamma):
        # Row counts straddle one and two blocks of tfr._CHUNK_FRAMES
        # frames, which stct walks.
        rng = np.random.default_rng(width * 1000 + n_rows)
        mag = np.abs(rng.standard_normal((n_rows, width)))
        mag *= np.exp(rng.uniform(-20.0, 5.0, size=(n_rows, 1)))
        if n_rows > 1:
            mag[n_rows // 2] = 0.0  # an all-zero row among nonzero ones
        ref = np.maximum(scipy.fft.dct(mag**gamma, type=1, axis=1), 0.0)
        grid = TFRGrid(mag, fs=10.0, fft_half=width - 1)
        self.assert_bitwise_equal(stct(grid, gamma).values, ref)
        # The band routine's form: given buffers, the result in place of |V|.
        extended = np.empty((n_rows, 2 * (width - 1)))
        spectrum = np.empty((n_rows, width), dtype=np.complex128)
        out = tfr._stct_rows(mag, gamma, out=mag, extended=extended,
                             spectrum=spectrum)
        assert out is mag
        self.assert_bitwise_equal(out, ref)

    @pytest.mark.parametrize("K, M", [(4, 5), (8, 32), (30, 128), (50, 1009),
                                      (200, 1024)])
    @pytest.mark.parametrize("n_rows", [1, 17, 250])
    def test_stft_rows_equal_scipy_rfft(self, K, M, n_rows):
        # 2M = 10 leaves one padding column; 2M = 2018 has a large prime factor.
        rng = np.random.default_rng(M + n_rows)
        frames = rng.standard_normal((n_rows, 2 * K + 1))
        w = gaussian_window(K, 0.15)
        tapered = np.empty(frames.shape)
        out = np.empty((n_rows, M + 1), dtype=np.complex128)
        for taper in (w.h, w.dh):
            ref = scipy.fft.rfft(frames * taper, n=2 * M, axis=1)
            self.assert_bitwise_equal(tfr._stft_rows(frames, taper, M), ref)
            self.assert_bitwise_equal(
                tfr._stft_rows(frames, taper, M, tapered, out), ref)


class TestIstct:
    def test_exact_node_queries(self):
        # bins whose abscissa m/(2M) lands exactly on 1/j read column j
        M = 8
        rng = np.random.default_rng(11)
        c = TFRGrid(rng.uniform(1, 2, size=(3, M + 1)), fs=10.0, fft_half=M,
                    kind="stct")
        u = istct(c).values
        # m=2: 2/16 = 1/8 -> column 8; m=4: 4/16 = 1/4 -> column 4;
        # m=8: 8/16 = 1/2 -> column 2
        np.testing.assert_allclose(u[:, 2], c.values[:, 8])
        np.testing.assert_allclose(u[:, 4], c.values[:, 4])
        np.testing.assert_allclose(u[:, 8], c.values[:, 2])

    def test_dc_and_below_range_are_zero(self):
        M = 8
        c = TFRGrid(np.ones((2, M + 1)), fs=10.0, fft_half=M, kind="stct")
        u = istct(c).values
        assert np.all(u[:, 0] == 0.0)  # the m=0 query is defined as 0
        assert np.all(u[:, 1] == 0.0)  # 1/(2M) < 1/M

    def test_linear_blend_between_nodes(self):
        # M=4: query m=3 at 3/8, between nodes 1/3 (col 3) and 1/2 (col 2):
        # weight (3/8-1/3)/(1/2-1/3) = 0.25 toward col 2
        M = 4
        vals = np.zeros((1, M + 1))
        vals[0, 2] = 2.0  # value a at node 1/2
        vals[0, 3] = 6.0  # value b at node 1/3
        u = istct(TFRGrid(vals, fs=10.0, fft_half=M, kind="stct")).values
        assert u[0, 3] == pytest.approx(0.75 * 6.0 + 0.25 * 2.0)

    def test_mask_nonnegative(self):
        rng = np.random.default_rng(12)
        c = TFRGrid(np.maximum(rng.normal(size=(5, 33)), 0.0), fs=10.0,
                    fft_half=32, kind="stct")
        assert np.all(istct(c).values >= 0.0)

    def test_needs_three_columns(self):
        c = TFRGrid(np.ones((2, 2)), fs=10.0, fft_half=1, kind="stct")
        with pytest.raises(StructuralError):
            istct(c)


class TestDeshape:
    def test_ones_mask_is_identity(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
        v = TFRGrid(vals, fs=10.0, fft_half=16)
        u = TFRGrid(np.ones((4, 17)), fs=10.0, fft_half=16, kind="istct-mask")
        np.testing.assert_array_equal(deshape(v, u).values, vals)

    def test_zero_mask_annihilates(self):
        v = TFRGrid(np.ones((2, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        u = TFRGrid(np.zeros((2, 9)), fs=10.0, fft_half=8, kind="istct-mask")
        assert np.all(deshape(v, u).values == 0.0)

    def test_magnitude_product_identity(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(3, 20)) + 1j * rng.normal(size=(3, 20))
        mask = rng.uniform(0, 2, size=(3, 20))
        v = TFRGrid(vals, fs=10.0, fft_half=19)
        u = TFRGrid(mask, fs=10.0, fft_half=19, kind="istct-mask")
        w = deshape(v, u)
        np.testing.assert_allclose(np.abs(w.values), mask * np.abs(vals),
                                   rtol=1e-12)

    def test_dimension_mismatch(self):
        v = TFRGrid(np.ones((2, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        u = TFRGrid(np.ones((3, 9)), fs=10.0, fft_half=8, kind="istct-mask")
        with pytest.raises(StructuralError):
            deshape(v, u)

    def test_suppresses_dominant_harmonic(self):
        # noise-free two-harmonic tone: the mask must reverse the bin-level
        # dominance of the second harmonic over the fundamental
        fs = 40.0
        shape = WaveShape([0.4, 0.8], [0.5, 2.1], 0.0).normalized()
        t = np.arange(2400) / fs
        s = Signal(shape.evaluate(1.0 * t), fs)
        w = gaussian_window(240, 0.15)
        M = 1024
        v = stft(s, w, M)
        c = stct(v, 0.3)
        u = istct(c)
        wg = deshape(v, u)
        b1, b2 = (round(hz * 2.0 * M / fs) for hz in (1.0, 2.0))
        rows = slice(600, 1800)
        ratio_v = (np.abs(v.values[rows, b2]).sum()
                   / np.abs(v.values[rows, b1]).sum())
        ratio_w = (np.abs(wg.values[rows, b2]).sum()
                   / np.abs(wg.values[rows, b1]).sum())
        assert ratio_v > 1.0
        assert ratio_w < ratio_v


class TestReassignment:
    def test_below_threshold_is_sentinel(self):
        rng = np.random.default_rng(15)
        vals = 1e-3 * (rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9)))
        v = TFRGrid(vals, fs=10.0, fft_half=8)
        vd = TFRGrid(vals * 0.5, fs=10.0, fft_half=8)
        om = reassignment_operator(v, vd, upsilon=1.0, window_half=4)
        assert np.all(np.isneginf(om.values))

    def test_zero_derivative_gives_identity_rule(self):
        # V' == 0 means no correction: each cell points at its own bin
        vals = np.full((2, 9), 2.0 + 0j)
        v = TFRGrid(vals, fs=10.0, fft_half=8)
        vd = TFRGrid(np.zeros_like(vals), fs=10.0, fft_half=8)
        om = reassignment_operator(v, vd, upsilon=1e-9, window_half=4)
        np.testing.assert_array_equal(om.values, np.tile(np.arange(9.0), (2, 1)))

    def test_tone_points_at_its_bin(self):
        fs, M, K = 50.0, 256, 48
        b = 64
        s = make_tone(b * fs / (2 * M), fs=fs, n=600)
        w = gaussian_window(K, 0.15)
        v = stft(s, w, M)
        vd = stft(s, w, M, derivative=True)
        om = reassignment_operator(v, vd, 1e-9, K)
        mid = om.values[250:350, b]
        assert np.all(np.abs(mid - b) < 0.5)

    def test_tone_off_its_bin_is_reassigned_to_it(self):
        # sigma 0.08 makes the window's truncation negligible. A scale of
        # 2M / (2 pi (2K + 1)) puts each cell m off by (m - b) / (2K + 1):
        # -0.080 to +0.066 bins.
        K, M, b = 20, 64, 30.3
        s = make_tone(b * 5.0 / M, fs=10.0, n=120, phase=0.0)
        w = gaussian_window(K, 0.08)
        v, vd = stft(s, w, M), stft(s, w, M, derivative=True)
        om = reassignment_operator(v, vd, 1e-9, K)
        assert np.all(np.abs(om.values[60, 27:34] - b) <= 1e-6)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(16)
        vals = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
        v = TFRGrid(vals, fs=10.0, fft_half=16)
        vd = TFRGrid(rng.normal(size=(4, 17)) + 0j, fs=10.0, fft_half=16)
        finite_sets = []
        for ups in (1e-9, 0.5, 1.0, 2.0):
            om = reassignment_operator(v, vd, ups, window_half=4)
            finite_sets.append(om.finite_mask)
        for small, big in zip(finite_sets, finite_sets[1:]):
            assert np.all(small | ~big)  # finite cells only ever disappear

    def test_dimension_mismatch(self):
        v = TFRGrid(np.ones((2, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        vd = TFRGrid(np.ones((3, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        with pytest.raises(StructuralError):
            reassignment_operator(v, vd, 1e-9, 4)


class TestSynchrosqueeze:
    def test_identity_rule_preserves_grid(self):
        rng = np.random.default_rng(17)
        vals = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        src = TFRGrid(vals, fs=10.0, fft_half=8)
        om = OmegaMatrix(np.tile(np.arange(9.0), (3, 1)))
        out = synchrosqueeze(src, om)
        np.testing.assert_allclose(out.values, vals)

    def test_accounting_identity(self):
        rng = np.random.default_rng(18)
        M = 16
        vals = rng.normal(size=(5, M + 1)) + 1j * rng.normal(size=(5, M + 1))
        src = TFRGrid(vals, fs=10.0, fft_half=M)
        om_vals = rng.uniform(-4, M + 4, size=(5, M + 1))
        om_vals[rng.uniform(size=(5, M + 1)) < 0.3] = -np.inf
        om = OmegaMatrix(om_vals)
        out = synchrosqueeze(src, om)
        finite = np.isfinite(om_vals)
        target = np.rint(om_vals)
        moved = finite & (target >= 0) & (target <= M)
        for n in range(5):
            assert out.values[n].sum() == pytest.approx(vals[n][moved[n]].sum())

    def test_tone_energy_concentration(self):
        # the squeezed energy must collapse the Gaussian-window spread of a
        # bin-aligned tone to within one bin
        fs, M, K = 50.0, 512, 120
        b = 128
        s = make_tone(b * fs / (2 * M), fs=fs, n=1500)
        w = gaussian_window(K, 0.15)
        v = stft(s, w, M)
        vd = stft(s, w, M, derivative=True)
        om = reassignment_operator(v, vd, 1e-9, K)
        power = TFRGrid(np.abs(v.values) ** 2, fs=fs, fft_half=M)
        sq = synchrosqueeze(power, om)
        frame = 750
        row = sq.values[frame].real
        conc = row[b - 1 : b + 2].sum() / row.sum()
        vrow = np.abs(v.values[frame]) ** 2
        spread = vrow[b - 1 : b + 2].sum() / vrow.sum()
        assert conc >= 0.9
        assert conc > spread

    def test_sentinel_contributes_nothing(self):
        vals = np.ones((1, 9), dtype=np.complex128)
        src = TFRGrid(vals, fs=10.0, fft_half=8)
        om = OmegaMatrix(np.full((1, 9), -np.inf))
        assert np.all(synchrosqueeze(src, om).values == 0.0)

    def test_out_of_range_discarded(self):
        vals = np.ones((1, 5), dtype=np.complex128)
        src = TFRGrid(vals, fs=10.0, fft_half=4)
        om = OmegaMatrix(np.array([[  -3.0, 2.0, 9.0, 2.0, 4.0]]))
        out = synchrosqueeze(src, om).values[0]
        assert out[2] == pytest.approx(2.0)  # two cells landed on bin 2
        assert out[4] == pytest.approx(1.0)
        assert out.sum() == pytest.approx(3.0)  # -3 and 9 fell off the grid

    def test_kind_propagation(self):
        vals = np.ones((1, 9), dtype=np.complex128)
        om = OmegaMatrix(np.tile(np.arange(9.0), (1, 1)))
        assert synchrosqueeze(
            TFRGrid(vals, fs=10.0, fft_half=8, kind="dsstft"), om).kind == "dssst"
        assert synchrosqueeze(
            TFRGrid(vals, fs=10.0, fft_half=8, kind="stft"), om).kind == "sst"

    def test_dimension_mismatch(self):
        src = TFRGrid(np.ones((2, 9), dtype=np.complex128), fs=10.0, fft_half=8)
        om = OmegaMatrix(np.ones((2, 8)))
        with pytest.raises(StructuralError):
            synchrosqueeze(src, om)


UPSILON = 1e-9


def pair_block(seed, quiet, M=16, K=4, n_rows=6):
    """A random STFT pair ``(V, V')`` whose targets ``c - Im(V'/V) * scale``
    cover the grid, its rounding edges and beyond either end. With
    ``quiet``, a fifth of the cells have ``|V|`` at ``UPSILON`` (rule
    ``-inf``) and a few just above it."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, M + 1)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    omega = rng.uniform(-3, M + 3, size=shape)
    omega[0, :6] = [-0.5, M + 0.5, -0.51, M + 0.51, -1e9, 1e9]
    cols = np.arange(M + 1.0)
    quotient = rng.normal(size=shape) + 1j * (cols - omega) / oracle.omega_scale(M, K)
    if quiet:
        v[rng.uniform(size=shape) < 0.2] = UPSILON
        v[-1, ::3] = UPSILON * (1 + 1e-15)
    return v, v * quotient


def pair_rows(v, vd, band, K, kinds=(), gamma=0.3):
    """The kernel routine's ``(band_mag, grids)`` from the STFT pair
    ``(V, V')``, keeping the grids ``kinds``."""
    n_rows, width = v.shape
    M = width - 1
    ws = tfr._BandWorkspace(n_rows, 2 * K + 1, M)
    ws.v[:], ws.vd[:] = v, vd
    scale = tfr._omega_scale(M, K)
    grids = {kind: np.empty(v.shape) for kind in kinds}
    band_mag = np.empty((n_rows, band[1] - band[0] + 1))
    tfr._pair_rows(ws.v, ws.vd, gamma, UPSILON, band, scale,
                   tfr._istct_interp_table(M),
                   tfr._candidate_bounds(band, width, scale), grids, band_mag, ws)
    return band_mag, grids


class TestSqueezeForms:
    """The full-width scatter and the band routine are bitwise one squeeze,
    and that squeeze is the oracle's."""

    @staticmethod
    def tiled(v, vd, K=4):
        M = v.shape[1] - 1
        return np.hstack([pair_rows(v, vd, band, K)[0]
                          for band in [(0, 5), (6, M - 1), (M, M)]])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("quiet", [False, True])
    def test_bands_tile_the_full_range(self, seed, quiet):
        # Narrow bands: most of each band's cells come from other columns.
        # With dssst kept, the routine squeezes every column and slices the band.
        v, vd = pair_block(seed, quiet)
        M = v.shape[1] - 1
        band_mag, grids = pair_rows(v, vd, (6, M - 1), 4, kinds=("dssst",))
        full = grids["dssst"]
        want = oracle.pair_chain(v, vd, 4, 0.3, UPSILON)[0]["dssst"]
        assert rel_frobenius(full, want) <= 1e-9
        assert full.tobytes() == self.tiled(v, vd).tobytes()
        assert np.count_nonzero(full[:, 2:]) > M  # the mask is zero at bins 0, 1
        assert band_mag.tobytes() == np.ascontiguousarray(full[:, 6:M]).tobytes()

    def test_real_source(self):
        v, vd = pair_block(9, quiet=True)
        omega = oracle.rule(v, vd, 4, UPSILON)  # -inf, rounding edges, off-grid
        omega[1, :2] = np.nan
        src = np.abs(v)
        full = tfr._squeeze_rows(src, omega)
        assert full.dtype == np.float64
        assert full.tobytes() == oracle.squeeze(src, omega).tobytes()

    @pytest.mark.parametrize("targets", ["none", "every cell"])
    def test_all_zero_block_squeezes_to_positive_zeros(self, targets):
        # V = 0 gives no cell a target. Otherwise V' = 0 sends every cell to
        # its own bin, and |V|^gamma's cepstrum is -M/2 or -M at the columns
        # 2..M the mask reads, so the mask and W = V * mask are zero.
        M = 16
        v = np.zeros((4, M + 1), dtype=np.complex128)
        if targets == "every cell":
            q, m = np.ogrid[2 : M + 1, : M + 1]
            power = M - 0.5 * np.cos(np.pi * q * m / M).sum(axis=0)
            v[:] = power ** (1 / 0.3) * np.exp(1j * np.arange(v.size)).reshape(v.shape)
        vd = np.zeros_like(v)
        band_mag, grids = pair_rows(v, vd, (0, M), 4, kinds=("dsstft", "dssst"))
        zeros = np.zeros(v.shape).tobytes()
        assert grids["dsstft"].tobytes() == grids["dssst"].tobytes() == zeros
        assert band_mag.tobytes() == self.tiled(v, vd).tobytes() == zeros


class TestCandidateBound:
    """Every cell whose rounded target lands in the band is a candidate."""

    @staticmethod
    def landing_cells(v, vd, cols, band, scale):
        """Cells whose target, rounded as the kernel rounds it, is in band."""
        targets = np.rint(cols - (vd / v).imag * scale)
        return (targets >= band[0]) & (targets <= band[1])

    @staticmethod
    def naive_bounds(band, n_cols, scale, half=0.5, margin=tfr._BOUND_MARGIN):
        cols = np.arange(n_cols, dtype=np.float64)
        d = np.maximum(np.maximum(band[0] - cols, cols - band[1]), 0.0)
        return np.maximum(d - half, 0.0) / scale * (1.0 - margin)

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(data=st.data(),
           KM=st.sampled_from([(4, 16), (40, 256), (200, 1024), (600, 4096)]),
           at_edge=st.booleans(),
           nudge=st.integers(-4, 4),
           log_mag=st.sampled_from([None, 0.0, 3.0, -5.0]),
           real=st.just(0.0) | st.floats(-1e3, 1e3),
           phase=st.just(0.0) | st.floats(0.0, 2 * np.pi))
    def test_every_landing_cell_is_a_candidate(self, data, KM, at_edge, nudge,
                                               log_mag, real, phase):
        K, M = KM
        n_cols = M + 1
        scale = tfr._omega_scale(M, K)
        lo = data.draw(st.integers(0, M))
        hi = data.draw(st.integers(lo, M))
        col = data.draw(st.integers(0, M))
        # Im(V'/V) puts the unrounded target at the band's rounding edge on
        # the column's side, a few ulps either side of it, or anywhere.
        if at_edge:
            imag = (col - ((lo - 0.5) if col < lo else (hi + 0.5))) / scale
            for _ in range(abs(nudge)):
                imag = np.nextafter(imag, np.inf if nudge > 0 else -np.inf)
        else:
            imag = (col - data.draw(st.floats(-2.0 * M, 3.0 * M))) / scale
        # |V| just above upsilon, or a drawn magnitude.
        mag = UPSILON * (1 + 1e-12) if log_mag is None else 10.0 ** log_mag
        v = np.array([mag * np.exp(1j * phase)])
        vd = v * (real + 1j * imag)
        thr = tfr._candidate_bounds((lo, hi), n_cols, scale)
        if self.landing_cells(v, vd, col, (lo, hi), scale)[0]:
            assert np.abs(vd)[0] >= np.abs(v)[0] * thr[col]

    @pytest.mark.parametrize("variant", ["no margin", "no half bin"])
    def test_a_weaker_bound_misses_landing_cells(self, variant):
        # V = 1 and V' = i * x make V'/V and |V'| / |V| exact, so only the
        # product with the scale and the rounding of the target are inexact.
        K, M, band = 600, 4096, (20, 60)
        scale = tfr._omega_scale(M, K)
        cols = np.arange(M + 1)
        half, margin = (0.5, 0.0) if variant == "no margin" else (0.0, tfr._BOUND_MARGIN)
        weak = self.naive_bounds(band, M + 1, scale, half=half, margin=margin)
        sound = tfr._candidate_bounds(band, M + 1, scale)
        missed = []
        for col in range(band[1] + 1, band[1] + 200):
            x = np.nextafter(weak[col], 0.0)
            v, vd = np.array([1.0 + 0j]), np.array([1j * x])
            if self.landing_cells(v, vd, cols[col], band, scale)[0]:
                assert np.abs(vd)[0] >= np.abs(v)[0] * sound[col]
                missed.append(col)
        assert missed


class TestHarmonicSuppressionInvariant:
    def test_band_mass_ratios_flip(self):
        # clean two-harmonic signal, alpha2 > alpha1: spectrogram band ratio
        # above one, de-shape squeezed ratio below one
        fs = 40.0
        shape = WaveShape([0.4, 0.8], [0.5, 2.1], 0.0).normalized()
        t = np.arange(2400) / fs
        s = Signal(shape.evaluate(1.0 * t), fs)
        K, M = 240, 1024
        _, grids = dsst(s, gaussian_window(K, 0.15), M, 1, 0.3, 1e-9, (0, M),
                        kinds=("stft", "dssst"))
        v, sw = grids["stft"], grids["dssst"]

        def band(lo, hi):
            return slice(int(np.ceil(lo * 2 * M / fs)),
                         int(np.floor(hi * 2 * M / fs)) + 1)

        rows = slice(600, 1800)
        fund, harm = band(0.85, 1.15), band(1.85, 2.15)
        v_ratio = (v[rows, harm] ** 2).sum() / (v[rows, fund] ** 2).sum()
        sw_ratio = (sw[rows, harm] ** 2).sum() / (sw[rows, fund] ** 2).sum()
        assert v_ratio > 1.0
        assert sw_ratio < 1.0


def walk_signal(n=1600, fs=20.0, seed=8):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    return Signal(np.abs(np.cos(2 * np.pi * t) + 0.3 * rng.normal(size=n)), fs)


def kernel(sig, cfg, band=(20, 60), kinds=(), out=None):
    """The kernel's ``(band_mag, grids)`` over ``sig`` with the test
    configuration."""
    K = cfg.window_half(sig.fs)
    w = gaussian_window(K, cfg.sigma)
    return dsst(sig, w, cfg.fft_half(K), cfg.hop, cfg.gamma, cfg.upsilon,
                band, kinds=kinds, out=out)


def band_and_kept_dssst(sig, cfg, band):
    """The kernel's ``band_mag`` keeping no grid, and its full squeeze: the
    dssst grid of a call that keeps it."""
    return (kernel(sig, cfg, band)[0],
            kernel(sig, cfg, band, kinds=("dssst",))[1]["dssst"])


def block_sizes(sig, cfg, monkeypatch):
    """Sorted frame counts of the blocks the kernel computes over ``sig``."""
    sizes = []
    band_rows = tfr._band_rows

    def spy(frames, *args, **kwargs):
        sizes.append(frames.shape[0])
        return band_rows(frames, *args, **kwargs)

    monkeypatch.setattr(tfr, "_band_rows", spy)
    kernel(sig, cfg)
    monkeypatch.setattr(tfr, "_band_rows", band_rows)
    return sorted(sizes)


def small_config(hop, window_span_s=4.0):
    """K = 40 and M = 256 at the walk signal's 20 Hz (K = 16 and M = 128 for
    a 1.6 s window, the oracle tests')."""
    return PipelineConfig(window_span_s=window_span_s, hop=hop, fs=None).validate()


def oracle_chain(sig, cfg):
    """The oracle's ``(grids, omega)`` over ``sig`` with the configuration."""
    K = cfg.window_half(sig.fs)
    return oracle.chain(sig.samples, gaussian_window(K, cfg.sigma),
                        cfg.fft_half(K), cfg.hop, cfg.gamma, cfg.upsilon)


@functools.cache
def oracle_case(hop):
    """A walk of 150 frames at ``hop``, the 1.6 s window's configuration,
    and the oracle's grids and rule over it: 129 bins a frame. Every caller
    gets the same arrays, so none may write to them."""
    sig, cfg = walk_signal(n=150 * hop), small_config(hop, window_span_s=1.6)
    return sig, cfg, *oracle_chain(sig, cfg)


class TestFrameBlocks:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 20 * tfr._CHUNK_FRAMES))
    def test_blocks_cover_frames_evenly(self, n):
        blocks = tfr._frame_blocks(n)
        stops = [0] + [rows.stop for rows in blocks]
        assert [rows.start for rows in blocks] == stops[:-1]
        assert stops[-1] == n
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(1 <= size <= tfr._CHUNK_FRAMES for size in sizes)
        if sizes:
            assert max(sizes) - min(sizes) <= 1
        if n >= 2:
            assert len(blocks) % tfr._MAX_IN_FLIGHT == 0

    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (255, [7] + [8] * 31),
        (360, ([7] + [8] * 4 + ([7] + [8] * 5) * 3) * 2), (6000, [8] * 750),
        (7, [3, 4]), (20, [5] * 4)])
    def test_known_layouts(self, n, sizes):
        assert [rows.stop - rows.start for rows in tfr._frame_blocks(n)] == sizes

    @pytest.mark.parametrize("n_frames", [100, 1600])
    def test_layout_does_not_depend_on_pool_size(self, n_frames, monkeypatch):
        sig = walk_signal(n=n_frames)
        layouts = {}
        for n_workers in (1, 2):
            monkeypatch.setattr(tfr, "_pool_size", lambda: n_workers)
            layouts[n_workers] = block_sizes(sig, small_config(1), monkeypatch)
        expected = sorted(rows.stop - rows.start
                          for rows in tfr._frame_blocks(n_frames))
        assert layouts[1] == layouts[2] == expected

    def test_short_bout_yields_two_blocks(self, monkeypatch):
        n = tfr._CHUNK_FRAMES - 1
        sizes = block_sizes(walk_signal(n=n), small_config(1), monkeypatch)
        assert sizes == [n // 2, n - n // 2]


class TestChunkedChain:
    @pytest.mark.parametrize("hop", [1, 3])
    @pytest.mark.parametrize("kinds", [
        kinds for r in range(len(GRID_KINDS) + 1)
        for kinds in itertools.combinations(GRID_KINDS, r)],
        ids=lambda kinds: ",".join(kinds) or "none")
    def test_kept_grids_match_full_grid_chain(self, kinds, hop):
        # The full grids of the oracle's chain. Each block writes only the
        # kept grids, and squeezes the band alone unless it keeps sst or
        # dssst, so every subset is checked, also against the bits of a call
        # that keeps all six.
        sig, cfg, want, _ = oracle_case(hop)
        band_mag, grids = kernel(sig, cfg, (20, 60), kinds=kinds)
        every_band, every = kernel(sig, cfg, (20, 60), kinds=GRID_KINDS)
        assert grids.keys() == set(kinds)
        for kind in kinds:
            assert rel_frobenius(grids[kind], want[kind]) <= 1e-9, kind
            assert grids[kind].tobytes() == every[kind].tobytes(), kind
        assert rel_frobenius(band_mag, want["dssst"][:, 20:61]) <= 1e-9
        assert band_mag.tobytes() == every_band.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data(), M=st.integers(16, 128), hop=st.integers(1, 4),
           walk=st.booleans(), gamma=st.floats(0.05, 2.0),
           upsilon=st.sampled_from([1e-9, 1e-3, 0.1, 1.0]),
           kinds=st.sets(st.sampled_from(GRID_KINDS)))
    def test_matches_oracle_across_configurations(self, data, M, hop, walk,
                                                  gamma, upsilon, kinds):
        # Windows of 9 samples or more, frames of K + 1 samples or more: a
        # shorter frame's |V| is nearly constant, so its cepstrum and mask
        # are rounding noise that no two correct sums agree on.
        K = data.draw(st.integers(4, min(M - 1, 48)), label="K")
        lo = data.draw(st.integers(0, M), label="lo")
        hi = data.draw(st.integers(lo, M), label="hi")
        n = data.draw(st.integers(2 * K + 1, 150 * hop), label="n")
        x = (walk_signal(n=n, seed=n).samples if walk
             else np.random.default_rng(n).normal(size=n))
        w = gaussian_window(K, 0.15)
        want = oracle.chain(x, w, M, hop, gamma, upsilon)[0]
        band_mag, grids = dsst(Signal(x, 20.0), w, M, hop, gamma, upsilon,
                               (lo, hi), kinds=kinds)
        for kind in kinds:
            assert rel_frobenius(grids[kind], want[kind]) <= 1e-9, kind
        # Against the whole squeeze's norm: a narrow band may hold nothing
        # but rounding noise.
        err = np.linalg.norm(band_mag - want["dssst"][:, lo : hi + 1])
        assert err <= 1e-9 * np.linalg.norm(want["dssst"])

    @pytest.mark.parametrize("hop", [1, 3])
    def test_out_rows_get_the_bits_of_fresh_grids(self, hop):
        # As the run passes them: the first rows of longer buffers.
        sig = walk_signal()
        cfg = small_config(hop)
        kinds = ("stft", "sst", "dssst")
        fresh_band, fresh = kernel(sig, cfg, kinds=kinds)
        n, width = fresh["stft"].shape
        buffers = {kind: np.full((n + 7, width), np.nan) for kind in kinds}
        out = {kind: buf[:n] for kind, buf in buffers.items()}
        band_mag, grids = kernel(sig, cfg, kinds=kinds, out=out)
        assert band_mag.tobytes() == fresh_band.tobytes()
        for kind in kinds:
            assert grids[kind] is out[kind]
            assert grids[kind].tobytes() == fresh[kind].tobytes(), kind
            assert np.isnan(buffers[kind][n:]).all(), kind

    @pytest.mark.parametrize("case", ["rows", "columns", "float32", "not kept",
                                      "shared"])
    def test_wrong_out_rejected(self, case):
        sig = walk_signal(n=200)
        cfg = small_config(1)
        width = cfg.fft_half(cfg.window_half(sig.fs)) + 1
        grid = np.empty((200, width))
        out = {"rows": {"stft": np.empty((201, width))},
               "columns": {"stft": np.empty((200, width - 1))},
               "float32": {"stft": np.empty((200, width), np.float32)},
               "not kept": {"stft": grid, "sst": np.empty((200, width))},
               "shared": {"stft": grid, "dssst": grid[::-1]}}[case]
        with pytest.raises(StructuralError, match="out"):
            kernel(sig, cfg, kinds=("stft", "dssst"), out=out)

    def test_one_mask_per_block(self, monkeypatch):
        sig = walk_signal()
        mask_rows = []
        istct_rows = tfr._istct_rows

        def spy(ceps, *args, **kwargs):
            mask_rows.append(ceps.shape[0])
            return istct_rows(ceps, *args, **kwargs)

        monkeypatch.setattr(tfr, "_istct_rows", spy)
        kernel(sig, small_config(1), kinds=("istct-mask", "dsstft", "dssst"))
        assert sorted(mask_rows) == sorted(
            rows.stop - rows.start for rows in tfr._frame_blocks(len(sig)))

    @pytest.mark.parametrize("hop", [1, 3])
    @pytest.mark.parametrize("where", ["inner", "bin 0", "bin M"])
    def test_band_rows_match_full_squeeze(self, hop, where):
        sig, cfg, want, _ = oracle_case(hop)
        M = want["dssst"].shape[1] - 1
        lo, hi = {"inner": (20, 60), "bin 0": (0, 12),
                  "bin M": (M - 30, M)}[where]
        got, full = band_and_kept_dssst(sig, cfg, (lo, hi))
        assert len(tfr._frame_blocks(got.shape[0])) > 1
        assert got.shape == (full.shape[0], hi - lo + 1)
        assert got.tobytes() == np.ascontiguousarray(full[:, lo : hi + 1]).tobytes()
        assert rel_frobenius(got, want["dssst"][:, lo : hi + 1]) <= 1e-9
        assert np.any(got > 0)

    def test_band_keeps_cells_from_columns_far_outside_it(self):
        # The band routine divides V'/V only at candidate cells. A cell more
        # than 20 bins outside the band whose energy lands in it must count.
        sig, cfg, want, omega = oracle_case(1)
        lo, hi = 20, 60
        targets = np.rint(omega)
        cols = np.arange(targets.shape[1])
        far = ((targets >= lo) & (targets <= hi)
               & ((cols < lo - 20) | (cols > hi + 20)))
        assert np.any(want["dsstft"][far] != 0)
        got, full = band_and_kept_dssst(sig, cfg, (lo, hi))
        assert got.tobytes() == np.ascontiguousarray(full[:, lo : hi + 1]).tobytes()
        assert rel_frobenius(got, want["dssst"][:, lo : hi + 1]) <= 1e-9

    @pytest.mark.parametrize("kinds, workspaces",
                             [((), 2), (("stft",), 2), (GRID_KINDS, 2)])
    def test_one_workspace_per_worker(self, kinds, workspaces, monkeypatch):
        # 20 blocks on two workers: each worker allocates its buffers once,
        # whatever grids the call keeps.
        monkeypatch.setattr(tfr, "_pool_size", lambda: 2)
        owners = []
        workspace = tfr._BandWorkspace

        def spy(*args):
            owners.append(threading.current_thread())
            return workspace(*args)

        monkeypatch.setattr(tfr, "_BandWorkspace", spy)
        sig, cfg, want, _ = oracle_case(1)
        band_mag, _ = kernel(sig, cfg, kinds=kinds)
        assert len(owners) == len(set(owners)) == workspaces
        assert rel_frobenius(band_mag, want["dssst"][:, 20:61]) <= 1e-9

    @pytest.mark.parametrize("kinds", [
        ("stft",), ("stft", "stct", "istct-mask", "dsstft"), ("sst",),
        ("dssst",), ("stft", "sst", "dssst"), GRID_KINDS], ids=",".join)
    def test_full_squeeze_only_for_a_kept_squeeze(self, kinds, monkeypatch):
        # Each block squeezes every column once per kept sst or dssst grid,
        # and not at all for the other grids: the band then takes only the
        # cells that can land in it.
        calls = []
        squeeze_rows = tfr._squeeze_rows

        def spy(src, omega, *args):
            calls.append(omega.shape[0])
            return squeeze_rows(src, omega, *args)

        monkeypatch.setattr(tfr, "_squeeze_rows", spy)
        sig = walk_signal()
        kernel(sig, small_config(1), kinds=kinds)
        squeezes = sum(kind in kinds for kind in ("sst", "dssst"))
        sizes = [rows.stop - rows.start for rows in tfr._frame_blocks(len(sig))]
        assert sorted(calls) == sorted(sizes * squeezes)

    def test_block_with_no_cell_in_range_is_zero(self):
        # A middle block's frames see only zeros, so none of its cells is
        # reassigned.
        sig, cfg = walk_signal(n=150), small_config(1, window_span_s=1.6)
        K = cfg.window_half(sig.fs)
        blocks = tfr._frame_blocks(len(sig))
        middle = blocks[len(blocks) // 2]
        a, b = middle.start, middle.stop
        sig.samples[a - K : b + K] = 0.0
        want, omega = oracle_chain(sig, cfg)
        assert not np.any(np.isfinite(omega[a:b]))
        got, full = band_and_kept_dssst(sig, cfg, (20, 60))
        assert got[a:b].tobytes() == np.zeros((b - a, 41)).tobytes()
        assert got.tobytes() == np.ascontiguousarray(full[:, 20:61]).tobytes()
        assert rel_frobenius(got, want["dssst"][:, 20:61]) <= 1e-9

    @pytest.mark.parametrize("hop", [1, 3])
    def test_pool_size_does_not_change_rows(self, hop, monkeypatch):
        # 1590 and 530 frames: more blocks than workers either way, and
        # blocks of two sizes.
        sig = walk_signal(n=1590)
        cfg = small_config(hop)
        n_frames = -(-1590 // hop)
        assert n_frames % tfr._CHUNK_FRAMES != 0
        assert len(tfr._frame_blocks(n_frames)) > 2
        runs = {}
        for n_workers in (1, 2):
            monkeypatch.setattr(tfr, "_pool_size", lambda: n_workers)
            runs[n_workers] = kernel(sig, cfg, kinds=GRID_KINDS)
        (band1, grids1), (band2, grids2) = runs[1], runs[2]
        assert band1.shape == (n_frames, 41)
        assert band1.tobytes() == band2.tobytes()
        assert grids1.keys() == grids2.keys() == set(GRID_KINDS)
        for kind in GRID_KINDS:
            assert grids1[kind].shape[0] == n_frames
            assert grids1[kind].tobytes() == grids2[kind].tobytes(), kind

    @pytest.mark.parametrize("kinds", [(), GRID_KINDS])
    def test_block_order_does_not_change_rows(self, kinds, monkeypatch):
        sig = walk_signal()
        cfg = small_config(1)
        band, grids = kernel(sig, cfg, kinds=kinds)
        frame_blocks = tfr._frame_blocks
        monkeypatch.setattr(tfr, "_frame_blocks",
                            lambda n: frame_blocks(n)[::-1])
        rev_band, rev_grids = kernel(sig, cfg, kinds=kinds)
        assert rev_band.tobytes() == band.tobytes()
        assert rev_grids.keys() == grids.keys() == set(kinds)
        for kind in kinds:
            assert rev_grids[kind].tobytes() == grids[kind].tobytes(), kind

    def test_window_longer_than_dft_rejected(self):
        # rfft's ``n`` would cut each 41-sample frame to 38 without a word.
        s = Signal(np.zeros(50), fs=10.0)
        with pytest.raises(ParameterError, match="shorter than window span"):
            dsst(s, gaussian_window(20, 0.15), 19, 1, 0.3, 1e-3, (0, 19))

    def test_error_in_a_block_propagates_and_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(tfr, "_pool_size", lambda: 2)
        calls = itertools.count()
        band_rows = tfr._band_rows

        def failing_second_block(*args, **kwargs):
            if next(calls) == 1:
                raise RuntimeError("block failed")
            return band_rows(*args, **kwargs)

        monkeypatch.setattr(tfr, "_band_rows", failing_second_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            kernel(walk_signal(), small_config(1))
        assert threading.active_count() == before
        # Of 200 blocks, the other worker finishes at most the one it holds
        # and one it took before the failure drained the rest.
        assert next(calls) <= 3

    def test_error_in_the_callers_first_block_stops_the_helper(
            self, monkeypatch):
        monkeypatch.setattr(tfr, "_pool_size", lambda: 2)
        calls, failed_at = itertools.count(), []
        band_rows = tfr._band_rows

        def failing_callers_first_block(*args, **kwargs):
            call = next(calls)
            if (threading.current_thread() is threading.main_thread()
                    and not failed_at):
                failed_at.append(call)
                raise RuntimeError("caller's block failed")
            return band_rows(*args, **kwargs)

        monkeypatch.setattr(tfr, "_band_rows", failing_callers_first_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller's block failed"):
            kernel(walk_signal(), small_config(1))
        assert threading.active_count() == before
        # On one core the helper may compute many blocks before the caller
        # takes its first. After the failure it starts at most the one it
        # may have taken before the drain.
        assert next(calls) - failed_at[0] - 1 <= 1

    @pytest.mark.parametrize("cores, helpers", [(1, 0), (2, 1)])
    def test_caller_computes_blocks_beside_the_helpers(self, cores, helpers,
                                                       monkeypatch):
        monkeypatch.setattr(tfr, "_pool_size", lambda: cores)
        started, threads = [], set()
        start, band_rows = threading.Thread.start, tfr._band_rows

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def spy(*args, **kwargs):
            threads.add(threading.current_thread())
            return band_rows(*args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(tfr, "_band_rows", spy)
        kernel(walk_signal(), small_config(1))
        assert len(started) == helpers
        assert threading.main_thread() in threads
        assert threads <= {threading.main_thread(), *started}

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: a block taken twice, or lost, shows in the counts.
        sig, cfg = walk_signal(), small_config(1)
        monkeypatch.setattr(tfr, "_pool_size", lambda: 1)
        serial = kernel(sig, cfg)[0]
        monkeypatch.setattr(tfr, "_pool_size", lambda: 4)
        starts = collections.Counter()
        band_rows = tfr._band_rows

        def spy(*args):
            starts[args[-2].ctypes.data] += 1  # the block's rows of band_mag
            band_rows(*args)

        monkeypatch.setattr(tfr, "_band_rows", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            band_mag = kernel(sig, cfg)[0]
        finally:
            sys.setswitchinterval(interval)
        assert len(starts) == len(tfr._frame_blocks(len(sig)))
        assert set(starts.values()) == {1}
        assert band_mag.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("hop", [1, 3])
    def test_collecting_dssst_keeps_band_mag(self, hop):
        sig = walk_signal()
        cfg = small_config(hop)
        plain = analyze_signal(sig, cfg)
        collected = analyze_signal(sig, cfg, collect=("dssst",))
        assert plain.band_mag.tobytes() == collected.band_mag.tobytes()
        lo, hi = plain.band_bins
        assert (np.ascontiguousarray(collected.grids["dssst"][:, lo : hi + 1])
                .tobytes() == plain.band_mag.tobytes())


class TestKernelMemory:
    def test_memory_beyond_band_mag_does_not_grow_with_the_bout(self):
        # Default configuration, hop 1, 100 Hz: each of the two workers
        # holds one 8-frame workspace of 1.5 MB, and the kernel peaks at
        # ~3.5 MB beside the 60 s bout's 8.6 MB band_mag (~4.6 MB while each
        # block allocated and dropped its own stage arrays, ~5.6 MB while V'
        # was held through the cepstrum and every stage array to the block's
        # end). Blocks of 16 frames peaked at 19.5 MB in all, blocks of 256
        # frames at ~170 MB.
        cfg = PipelineConfig().validate()
        peaks, band_bytes = {}, {}
        for seconds in (30, 60):
            sig = walk_signal(n=seconds * 100, fs=100.0)
            M = cfg.fft_half(cfg.window_half(sig.fs))
            band = band_to_bins(cfg.band_hz, sig.fs, M)
            tracemalloc.start()
            try:
                band_mag, _ = kernel(sig, cfg, band)
                _, peaks[seconds] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            band_bytes[seconds] = band_mag.nbytes
        assert peaks[60] - band_bytes[60] < 3.8e6
        assert peaks[60] - peaks[30] < band_bytes[60] - band_bytes[30] + 2**21

    def test_memory_beyond_the_outputs_with_dssst_kept(self):
        # Hop 10 on a 37.7 s bout, as a multi-bout run exporting dssst: each
        # worker squeezes every column in its workspace, the rule in the
        # kept dssst rows, the targets and index pairs over |V| and V', and
        # two workers peak at ~4.2 MB beyond the outputs (~4.4 MB while a
        # second routine allocated each block's stage arrays, ~7.0 MB with
        # V, the cepstrum and V'/V's own array held; 5.2-7.5 MB with
        # dedicated buffers for the spectrum, the mask or the squeeze).
        cfg = PipelineConfig(hop=10).validate()
        sig = walk_signal(n=3770, fs=100.0)
        M = cfg.fft_half(cfg.window_half(sig.fs))
        band = band_to_bins(cfg.band_hz, sig.fs, M)
        tracemalloc.start()
        try:
            band_mag, grids = kernel(sig, cfg, band, kinds=("dssst",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grids["dssst"].shape == (377, M + 1)
        assert peak - band_mag.nbytes - grids["dssst"].nbytes < 5.0e6

    def test_memory_beyond_band_mag_does_not_grow_with_the_block_count(self):
        # 250 against 2000 blocks of 8 small frames. A queued future per
        # block (~2 KB) would add ~3.4 MB.
        cfg = small_config(1)
        extra = {}
        for n in (2000, 16000):
            sig = walk_signal(n=n)
            tracemalloc.start()
            try:
                band_mag, _ = kernel(sig, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[n] = peak - band_mag.nbytes
        assert extra[16000] - extra[2000] < 1e6

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's minor-fault count")
    def test_cold_call_does_not_refault_its_blocks(self):
        # A fresh interpreter, one dsst call on a 60 s hop-1 walk at the
        # default configuration: each worker's workspace is faulted in once.
        # With a block's stage arrays allocated per block, glibc handed them
        # back to the system and faulted them in again on every block: about
        # 590k minor faults.
        code = textwrap.dedent("""
            import resource, sys
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from gaitcadence.config import PipelineConfig
            from gaitcadence.ridge import band_to_bins
            from gaitcadence.signal import Signal, gaussian_window
            from gaitcadence.tfr import dsst
            rng = np.random.default_rng(8)
            t = np.arange(6000) / 100.0
            sig = Signal(np.abs(np.cos(2 * np.pi * t)
                                + 0.3 * rng.normal(size=t.size)), 100.0)
            cfg = PipelineConfig().validate()
            K = cfg.window_half(sig.fs)
            M = cfg.fft_half(K)
            band = band_to_bins(cfg.band_hz, sig.fs, M)
            w = gaussian_window(K, cfg.sigma)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            dsst(sig, w, M, cfg.hop, cfg.gamma, cfg.upsilon, band)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(tfr.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=300)
        assert int(out.stdout.split()[-1]) < 50_000
