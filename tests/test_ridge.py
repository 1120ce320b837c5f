"""Ridge extraction against exhaustive path enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitcadence.errors import ParameterError, StructuralError
from gaitcadence.pipeline import BoutAnalysis, extract_bout_ridge
from gaitcadence.ridge import band_to_bins, cadence_from_ridge, ridge_dp

from conftest import enumerated_best, path_objective


def ridge_of(mag, fs=10.0, band_hz=None, penalty=1.0):
    """Ridge through a full-width magnitude grid, restricted as the pipeline does."""
    fft_half = mag.shape[1] - 1
    lo, hi = ((0, fft_half) if band_hz is None
              else band_to_bins(band_hz, fs, fft_half))
    analysis = BoutAnalysis(band_mag=mag[:, lo : hi + 1], band_bins=(lo, hi),
                            fft_half=fft_half, hop=1, fs=fs, t0=0.0,
                            n_frames=mag.shape[0])
    return extract_bout_ridge(analysis, penalty)


def pointer_dp(mag, penalty):
    """Full-width backward pass with successor pointers: every bin compares
    all B successors through a B x B jump matrix. ``ridge_dp`` must match
    this reference's bins bit for bit."""
    T, B = mag.shape
    total = mag.sum()
    score = np.maximum(mag, 1e-12 * total)
    np.log(score, out=score)
    score -= np.log(total)
    offsets = np.arange(B, dtype=np.float64)
    jump = penalty * (offsets[:, None] - offsets[None, :]) ** 2
    after = np.empty((T - 1, B), dtype=np.int64)
    suffix = score[-1]
    for t in range(T - 2, -1, -1):
        cand = suffix[None, :] - jump
        after[t] = np.argmax(cand, axis=1)
        suffix = score[t] + cand[np.arange(B), after[t]]
    bins = np.empty(T, dtype=np.int64)
    bins[0] = np.argmax(suffix)
    for t in range(1, T):
        bins[t] = after[t - 1, bins[t - 1]]
    return bins


@st.composite
def ridge_blocks(draw):
    """Random magnitude blocks; some have one column far above the rest.

    Short narrow blocks are drawn often: there a single frame's gain is a
    large share of a row's spread, so the best paths jump far.
    """
    T = draw(st.integers(1, 60) | st.integers(1, 4))
    B = draw(st.integers(1, 300) | st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mag = rng.uniform(0.0, 1.0, size=(T, B)) ** draw(st.sampled_from([1, 4, 16]))
    if draw(st.booleans()):
        mag[:, draw(st.integers(0, B - 1))] += draw(st.sampled_from([10.0, 1e6]))
    return mag


class TestRidgeDP:
    def test_single_nonzero_row(self):
        mag = np.zeros((5, 6))
        mag[:, 3] = 2.0
        bins, degenerate = ridge_dp(mag, penalty=1.0)
        assert not degenerate
        assert np.all(bins == 3)

    def test_hand_case_matches_enumeration(self):
        mag = np.array([
            [0.1, 2.0, 0.3, 0.1],
            [0.2, 0.3, 3.0, 0.1],
            [2.5, 0.2, 0.4, 0.1],
        ])
        bins, _ = ridge_dp(mag, penalty=1.0)
        np.testing.assert_array_equal(bins, enumerated_best(mag, 1.0)[0])

    def test_huge_penalty_gives_best_constant_path(self):
        rng = np.random.default_rng(21)
        mag = rng.uniform(0.1, 3.0, size=(5, 6))
        bins, _ = ridge_dp(mag, penalty=1e6)
        total = mag.sum()
        score = np.log(np.maximum(mag, 1e-12 * total)) - np.log(total)
        best_const = int(np.argmax(score.sum(axis=0)))
        assert np.all(bins == best_const)

    @pytest.mark.parametrize("penalty", [0.0, 0.1, 1.0, 10.0])
    def test_random_blocks_match_enumeration(self, penalty):
        rng = np.random.default_rng(int(penalty * 10) + 5)
        tie_rng = np.random.default_rng(int(penalty * 10) + 50)
        for _ in range(25):
            T = int(rng.integers(1, 7))
            B = int(rng.integers(2, 9))
            uniform = rng.uniform(0.0, 4.0, size=(T, B))
            bins, _ = ridge_dp(uniform, penalty)
            np.testing.assert_array_equal(bins, enumerated_best(uniform, penalty)[0])
            # A mirror-symmetric block ties every path with its mirror image
            # bit for bit, in any summation order; the lower one must win.
            mirrored = uniform + uniform[:, ::-1]
            bins, _ = ridge_dp(mirrored, penalty)
            np.testing.assert_array_equal(bins, enumerated_best(mirrored, penalty)[0])
            # Integer levels 0..2 make many paths that tie in exact arithmetic;
            # summation order breaks some of those ties either way, so only
            # the optimum's value is compared here.
            tied = tie_rng.integers(0, 3, size=(T, B)).astype(np.float64)
            if tied.any():
                bins, _ = ridge_dp(tied, penalty)
                _, ref_obj = enumerated_best(tied, penalty)
                assert path_objective(tied, bins, penalty) == pytest.approx(
                    ref_obj, rel=1e-12, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ridge_blocks(), st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e6]))
    def test_matches_pointer_dp_bitwise(self, mag, penalty):
        bins, degenerate = ridge_dp(mag, penalty)
        assert not degenerate
        np.testing.assert_array_equal(bins, pointer_dp(mag, penalty))
        # Scoring the block in place gives the same bins.
        in_place, _ = ridge_dp(mag, penalty, out=mag)
        np.testing.assert_array_equal(in_place, bins)

    @pytest.mark.parametrize("penalty", [1.0, 1e-6])
    def test_whole_axis_block_memory_is_bounded(self, penalty):
        # band=None at M = 4096: B = 4097; a B x B float64 matrix is 134 MB.
        # At penalty 1e-6 the window spans most of the axis, so each
        # maximum is taken a few columns at a time.
        mag = np.random.default_rng(25).uniform(0.0, 1.0, size=(4, 4097))
        tracemalloc.start()
        try:
            ridge_dp(mag, penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_tie_break_toward_lower_bin(self):
        # all-equal magnitudes: every constant path ties; lowest bin wins
        mag = np.full((4, 5), 1.3)
        bins, _ = ridge_dp(mag, penalty=0.7)
        assert np.all(bins == 0)
        ref_bins, _ = enumerated_best(mag, 0.7)
        np.testing.assert_array_equal(bins, ref_bins)
        # from bin 1, bins 0 and 2 are equally good next steps
        mag = np.array([[1.0, 5.0, 1.0], [2.0, 1.0, 2.0]])
        bins, _ = ridge_dp(mag, penalty=0.1)
        np.testing.assert_array_equal(bins, [1, 0])
        np.testing.assert_array_equal(bins, enumerated_best(mag, 0.1)[0])

    def test_zero_penalty_is_per_frame_argmax(self):
        rng = np.random.default_rng(22)
        mag = rng.uniform(0.0, 1.0, size=(30, 12))
        bins, _ = ridge_dp(mag, penalty=0.0)
        np.testing.assert_array_equal(bins, mag.argmax(axis=1))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(23)
        mag = rng.uniform(0.0, 1.0, size=(8, 7))
        a, _ = ridge_dp(mag, penalty=0.5)
        b, _ = ridge_dp(1234.5 * mag, penalty=0.5)
        np.testing.assert_array_equal(a, b)

    def test_all_zero_block_degenerate(self):
        bins, degenerate = ridge_dp(np.zeros((4, 5)), penalty=1.0)
        assert degenerate
        assert np.all(bins == 0)

    @pytest.mark.parametrize("cell", [math.nan, math.inf, 1e308])
    def test_block_whose_total_is_not_finite_rejected(self, cell):
        # 1e308 twice overflows the sum, though every cell is finite.
        mag = np.ones((3, 4))
        mag[1, 2] = mag[2, 1] = cell
        with np.errstate(over="ignore"), pytest.raises(ParameterError,
                                                       match="not finite"):
            ridge_dp(mag, penalty=1.0)

    def test_negative_penalty_rejected(self):
        for penalty in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ridge_dp(np.ones((2, 2)), penalty=penalty)


class TestRidgeInPlace:
    @pytest.mark.parametrize("penalty", [0.0, 1e-3, 0.1, 1.0, 10.0, 1e6])
    def test_in_place_matches_copy_on_ties(self, penalty):
        rng = np.random.default_rng(26)
        uniform = rng.uniform(0.0, 4.0, size=(6, 8))
        blocks = [np.full((4, 5), 1.3),
                  np.array([[1.0, 5.0, 1.0], [2.0, 1.0, 2.0]]),
                  uniform + uniform[:, ::-1],
                  rng.integers(1, 3, size=(6, 8)).astype(np.float64)]
        for mag in blocks:
            want, _ = ridge_dp(mag.copy(), penalty)
            bins, _ = ridge_dp(mag, penalty, out=mag)
            np.testing.assert_array_equal(bins, want)

    def test_all_zero_block_writes_nothing(self):
        out = np.full((4, 5), 7.0)
        bins, degenerate = ridge_dp(np.zeros((4, 5)), 1.0, out=out)
        assert degenerate
        assert np.all(bins == 0)
        assert np.all(out == 7.0)

    def test_default_call_leaves_input_unchanged(self):
        mag = np.random.default_rng(27).uniform(0.0, 1.0, size=(40, 30))
        before = mag.tobytes()
        ridge_dp(mag, 0.5)
        assert mag.tobytes() == before

    @pytest.mark.parametrize("out", [np.empty((4, 6)), np.empty((4, 5), np.float32)])
    def test_wrong_out_rejected(self, out):
        with pytest.raises(StructuralError, match="out"):
            ridge_dp(np.ones((4, 5)), 1.0, out=out)

    def test_in_place_memory_is_not_the_block(self):
        # steady60's block: 6000 frames x 180 bins, 8.6 MB; the copying call
        # peaks at 8.87 MB under tracemalloc.
        mag = np.random.default_rng(28).uniform(0.0, 1.0, size=(6000, 180))
        tracemalloc.start()
        try:
            ridge_dp(mag, 1.0, out=mag)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestExtractRidge:
    def test_band_restriction(self):
        mag = np.zeros((6, 11))
        mag[:, 1] = 5.0  # outside the band
        mag[:, 6] = 1.0  # inside
        # fs=10, 2M=20 -> bin b at b*0.5 Hz
        curve = ridge_of(mag, band_hz=(2.0, 4.0), penalty=1.0)
        assert np.all(curve.bins == 6)
        assert curve.band == (4, 8)

    def test_full_band_by_default(self):
        mag = np.zeros((4, 9))
        mag[:, 7] = 1.0
        curve = ridge_of(mag)
        assert np.all(curve.bins == 7)
        assert curve.band == (0, 8)

    def test_empty_band_rejected(self):
        mag = np.ones((3, 5))
        with pytest.raises(ParameterError):
            ridge_of(mag, band_hz=(2.01, 2.02))

    def test_degenerate_block_flagged(self):
        curve = ridge_of(np.zeros((3, 11)), band_hz=(1.0, 2.0), penalty=1.0)
        assert curve.degenerate
        assert np.all(curve.bins == 2)

    def test_band_to_bins_mapping(self):
        # fs=10, 2M=20: bin spacing 0.5 Hz
        assert band_to_bins((1.0, 2.0), 10.0, 10) == (2, 4)
        # the band may reach Nyquist (bin M) but not beyond it
        assert band_to_bins((1.0, 5.0), 10.0, 10) == (2, 10)
        for band in ((1.0, 5.01), (0.3, 1e300)):
            with pytest.raises(ParameterError, match="Nyquist frequency 5 Hz"):
                band_to_bins(band, 10.0, 10)


class TestCadenceFromRidge:
    def test_formula(self):
        # fs=80, 2M=160: zero-based bin 2 -> 1 Hz -> cadence 2 Hz
        mag = np.zeros((3, 81))
        mag[:, 2] = 1.0
        curve = ridge_of(mag, fs=80.0, penalty=0.0)
        trace = cadence_from_ridge(curve, fs=80.0, fft_half=80)
        assert np.all(trace.if_hz == pytest.approx(1.0))
        assert np.all(trace.cadence_hz == pytest.approx(2.0))

    def test_dc_bin_gives_zero(self):
        mag = np.zeros((2, 5))
        mag[:, 0] = 1.0
        curve = ridge_of(mag, penalty=0.0)
        trace = cadence_from_ridge(curve, fs=10.0, fft_half=4)
        assert np.all(trace.if_hz == 0.0)
        assert np.all(trace.cadence_hz == 0.0)

    def test_cadence_exactly_twice_if(self):
        rng = np.random.default_rng(24)
        mag = rng.uniform(0.1, 1.0, size=(20, 33))
        curve = ridge_of(mag, fs=50.0, penalty=0.3)
        trace = cadence_from_ridge(curve, fs=50.0, fft_half=32)
        np.testing.assert_array_equal(trace.cadence_hz, 2.0 * trace.if_hz)

    def test_times_and_hop(self):
        curve = ridge_of(np.ones((3, 5)), penalty=0.0)
        trace = cadence_from_ridge(curve, fs=10.0, fft_half=4, hop=5, t0=2.5)
        np.testing.assert_allclose(trace.times, [2.5, 3.0, 3.5])
        assert trace.frame_dt == pytest.approx(0.5)
