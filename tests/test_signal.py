"""Signal containers and preprocessing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitcadence.errors import ParameterError, StructuralError
from gaitcadence.signal import (Signal, TriaxialRecord, gaussian_window,
                                median_detrend, rectify, vector_magnitude)


def brute_median_baseline(x, order):
    """Reference running median: ceil(order/2) samples at/left of center,
    floor(order/2) strictly right, truncated at the edges."""
    n = x.size
    left = (order + 1) // 2 - 1
    right = order // 2
    out = np.empty(n)
    for k in range(n):
        lo = max(0, k - left)
        hi = min(n, k + right + 1)
        out[k] = np.median(x[lo:hi])
    return out


class TestSignal:
    def test_times(self):
        s = Signal([1.0, 2.0, 3.0], fs=10.0, t0=1.0)
        assert np.allclose(s.times, [1.0, 1.1, 1.2])

    def test_rejects_bad_fs(self):
        with pytest.raises(ParameterError):
            Signal([1.0], fs=0.0)

    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            Signal([], fs=10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        x = np.ones(20)
        x[[7, 12]] = bad
        with pytest.raises(ParameterError, match="sample 7 "):
            Signal(x, fs=10.0)


class TestVectorMagnitude:
    def test_pythagorean_triple(self):
        rec = TriaxialRecord(x=[3.0], y=[4.0], z=[0.0], fs=100.0)
        assert vector_magnitude(rec).samples[0] == pytest.approx(5.0)

    def test_zero(self):
        rec = TriaxialRecord(x=[0.0], y=[0.0], z=[0.0], fs=100.0)
        assert vector_magnitude(rec).samples[0] == 0.0

    def test_unit_diagonal(self):
        rec = TriaxialRecord(x=[1.0], y=[1.0], z=[1.0], fs=100.0)
        assert vector_magnitude(rec).samples[0] == pytest.approx(math.sqrt(3.0))

    def test_fs_preserved(self):
        rec = TriaxialRecord(x=[1.0, 2.0], y=[0.0, 0.0], z=[0.0, 1.0], fs=80.0)
        assert vector_magnitude(rec).fs == 80.0

    def test_mismatched_axes_rejected(self):
        with pytest.raises(StructuralError):
            TriaxialRecord(x=[1.0, 2.0], y=[1.0], z=[1.0, 2.0], fs=100.0)

    def test_squared_identity(self):
        rng = np.random.default_rng(0)
        x, y, z = rng.normal(size=(3, 200))
        rec = TriaxialRecord(x=x, y=y, z=z, fs=100.0)
        out = vector_magnitude(rec).samples
        np.testing.assert_allclose(out**2, x**2 + y**2 + z**2, rtol=1e-14)

    def test_unknown_location_rejected(self):
        with pytest.raises(ParameterError):
            TriaxialRecord(x=[1.0], y=[1.0], z=[1.0], fs=100.0, location="arm")

    def test_overflow_named_without_warning(self):
        x = np.ones(20)
        x[5:] = 1.5e160
        rec = TriaxialRecord(x=x, y=np.zeros(20), z=np.zeros(20), fs=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError,
                               match=r"sample 5: .*\(1\.5e\+160, 0\.0, 0\.0\) "
                                     "overflows"):
                vector_magnitude(rec)

    def test_largest_finite_magnitude_passes(self):
        big = 1e154  # squared, 1e308 < float64 max
        rec = TriaxialRecord(x=[big], y=[0.0], z=[0.0], fs=100.0)
        assert vector_magnitude(rec).samples[0] == pytest.approx(big)

    def test_infinite_axis_is_not_an_overflow(self):
        rec = TriaxialRecord(x=[1.0, math.inf], y=[0.0, 1e200], z=[0.0, 0.0],
                             fs=100.0)
        with pytest.raises(ParameterError, match="sample 1 is not finite"):
            vector_magnitude(rec)


def detrend(x, order):
    """``median_detrend`` with a window of ``order`` samples, which is
    ``round(10 * fs)``."""
    return median_detrend(Signal(x, fs=order / 10)).samples


class TestMedianDetrend:
    def test_constant_goes_to_zero(self):
        for order in (1, 4, 11, 50):
            assert np.all(detrend(np.full(50, 3.7), order) == 0.0)

    def test_linear_ramp_interior_zero(self):
        out = detrend(np.arange(100, dtype=float), 11)
        assert np.allclose(out[5:-5], 0.0)

    def test_spike_on_baseline(self):
        x = np.ones(41)
        x[20] = 5.0
        out = detrend(x, 11)
        assert out[20] == pytest.approx(4.0)
        assert out[19] == pytest.approx(0.0)
        assert out[21] == pytest.approx(0.0)

    @pytest.mark.parametrize("order", [1, 2, 7, 10, 23, 64])
    def test_matches_reference_any_order(self, order):
        rng = np.random.default_rng(order)
        x = rng.normal(size=130)
        out = detrend(x, order)
        np.testing.assert_allclose(out, x - brute_median_baseline(x, order))

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24)))
    def test_bitwise_equal_to_reference_with_repeats(self, values):
        x = np.asarray(values) + 0.0  # one zero sign, as np.median may pick either
        for order in range(1, x.size + 1):
            out = detrend(x, order)
            assert out.tobytes() == (x - brute_median_baseline(x, order)).tobytes()

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=80)
        a = detrend(x, 9)
        b = detrend(x + 11.25, 9)
        np.testing.assert_allclose(a, b)

    def test_default_order_is_ten_seconds(self):
        s = Signal(np.ones(500), fs=20.0)
        assert np.all(median_detrend(s).samples == 0.0)
        with pytest.raises(ParameterError):
            median_detrend(Signal(np.ones(100), fs=20.0))  # 200 > 100

    def test_order_larger_than_signal_rejected(self):
        with pytest.raises(ParameterError):
            detrend(np.ones(10), 11)


class TestRectify:
    def test_absolute_value(self):
        out = rectify(Signal([-1.0, 2.0, -3.0], fs=1.0))
        np.testing.assert_allclose(out.samples, [1.0, 2.0, 3.0])

    def test_identity_on_nonnegative(self):
        x = np.array([0.0, 0.5, 2.0])
        np.testing.assert_array_equal(rectify(Signal(x, fs=1.0)).samples, x)

    def test_single_negative(self):
        assert rectify(Signal([-0.5], fs=1.0)).samples[0] == 0.5

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s = Signal(rng.normal(size=64), fs=1.0)
        once = rectify(s)
        twice = rectify(once)
        np.testing.assert_array_equal(once.samples, twice.samples)


class TestGaussianWindow:
    @pytest.mark.parametrize("K,sigma", [(1, 0.1), (5, 0.15), (64, 0.3)])
    def test_center_values(self, K, sigma):
        w = gaussian_window(K, sigma)
        assert w.h[K] == pytest.approx(1.0)
        assert w.dh[K] == 0.0

    def test_edge_value_frozen(self):
        # K=2, sigma=0.25: h(0) = exp(-0.25/0.125) = exp(-2)
        w = gaussian_window(2, 0.25)
        assert w.h[0] == pytest.approx(0.1353352832366127, rel=1e-12)

    @pytest.mark.parametrize("K,sigma", [(3, 0.2), (17, 0.15)])
    def test_symmetry(self, K, sigma):
        w = gaussian_window(K, sigma)
        np.testing.assert_allclose(w.h, w.h[::-1])
        np.testing.assert_allclose(w.dh, -w.dh[::-1])

    def test_length(self):
        w = gaussian_window(7, 0.15)
        assert w.span == 15 and w.h.size == 15

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            gaussian_window(0, 0.15)
        with pytest.raises(ParameterError):
            gaussian_window(4, 0.0)
