"""Synthetic walking-model generator and its ground truth."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.signal import lfilter

from gaitcadence.errors import ModelValidationError, ParameterError
from gaitcadence.signal import Signal, gaussian_window
from gaitcadence.synth import (BoutModel, ConstantProfile, LinearProfile,
                               WalkingModelSpec, WaveShape, ar1_noise,
                               ar1_sd_for_snr, synthesize_walk)
from gaitcadence.tfr import stft


def single_bout_spec(shape, if_profile=None, start=1.0, end=21.0, fs=50.0,
                     duration=22.0, **kw):
    bout = BoutModel(start_s=start, end_s=end,
                     if_profile=if_profile or ConstantProfile(1.0),
                     shape=shape, **kw)
    return WalkingModelSpec(fs=fs, duration_s=duration, bouts=[bout])


class TestWaveShape:
    def test_normalization_unit_power(self):
        shape = WaveShape([0.4, 0.8], [0.0, 1.0], 0.3).normalized()
        assert shape.rms() == pytest.approx(1.0)

    def test_realized_rms_is_one(self):
        shape = WaveShape([0.5, 1.0, 0.2], [0.3, 1.1, 2.0], 0.25).normalized()
        phase = np.linspace(0.0, 1.0, 200_000, endpoint=False)
        rms = math.sqrt(float(np.mean(shape.evaluate(phase) ** 2)))
        assert abs(rms - 1.0) < 1e-6

    def test_pure_cosine_needs_sqrt_two(self):
        shape = WaveShape([1.0], [0.0]).normalized()
        assert shape.alphas[0] == pytest.approx(math.sqrt(2.0))

    def test_mismatched_betas_rejected(self):
        with pytest.raises(ParameterError):
            WaveShape([1.0, 0.5], [0.0])


class TestSynthesizeWalk:
    def test_pure_cosine_bout(self):
        beta = 0.4
        shape = WaveShape([math.sqrt(2.0)], [beta])
        spec = single_bout_spec(shape)
        res = synthesize_walk(spec, seed=0)
        t = res.clean.times
        inside = (t >= 1.0) & (t < 21.0)
        expected = math.sqrt(2.0) * np.cos(2 * np.pi * 1.0 * (t[inside] - 1.0)
                                           + beta)
        np.testing.assert_allclose(res.clean.samples[inside], expected,
                                   atol=1e-9)
        assert np.all(res.clean.samples[~inside] == 0.0)

    def test_truth_if_matches_profile(self):
        shape = WaveShape([0.4, 0.8], [0.1, 0.9], 0.2).normalized()
        spec = single_bout_spec(shape, if_profile=LinearProfile(0.9, 1.1))
        res = synthesize_walk(spec, seed=1)
        t = res.signal.times
        inside = (t >= 1.0) & (t < 21.0)
        expected = 0.9 + 0.2 * (t[inside] - 1.0) / 20.0
        np.testing.assert_allclose(res.truth_if[inside], expected)
        assert np.all(np.isnan(res.truth_if[~inside]))

    def test_linear_profile_bitwise_equal_to_cumulative_trapezoid(self):
        shape = WaveShape([0.4, 0.8], [0.1, 0.9], 0.2).normalized()
        if_profile = LinearProfile(0.9, 1.1)
        amp_profile = LinearProfile(1.0, 1.5)
        spec = single_bout_spec(shape, if_profile=if_profile,
                                amp_profile=amp_profile, phase0=0.25)
        res = synthesize_walk(spec, seed=4)
        t = np.arange(spec.n_samples()) / spec.fs
        inside = (t >= 1.0) & (t < 21.0)
        tb = t[inside]
        phase = 0.25 + cumulative_trapezoid(if_profile.sample(tb, 1.0, 21.0),
                                            tb, initial=0.0)
        expected = amp_profile.sample(tb, 1.0, 21.0) * shape.evaluate(phase)
        assert res.clean.samples[inside].tobytes() == expected.tobytes()

    def test_phase_monotone_increasing(self):
        shape = WaveShape([0.4, 0.8], [0.1, 0.9], 0.2).normalized()
        spec = single_bout_spec(shape, if_profile=LinearProfile(0.8, 1.2))
        res = synthesize_walk(spec, seed=2)
        assert np.all(res.truth_if[~np.isnan(res.truth_if)] > 0)

    def test_reproducible_bit_identical(self):
        shape = WaveShape([0.4, 0.8], [0.1, 0.9], 0.2).normalized()
        spec = single_bout_spec(shape)
        spec.noise_sd = 0.5
        spec.noise_rho = 0.4
        a = synthesize_walk(spec, seed=33)
        b = synthesize_walk(spec, seed=33)
        np.testing.assert_array_equal(a.signal.samples, b.signal.samples)
        c = synthesize_walk(spec, seed=34)
        assert not np.array_equal(a.signal.samples, c.signal.samples)

    def test_dominant_second_harmonic_shows_in_stft(self):
        shape = WaveShape([0.4, 0.8], [0.5, 2.1], 0.0).normalized()
        spec = single_bout_spec(shape, start=0.0, end=40.0, duration=40.0,
                                fs=40.0)
        res = synthesize_walk(spec, seed=3)
        v = stft(res.clean, gaussian_window(160, 0.15), 512, hop=4)
        b1, b2 = (round(hz * 2.0 * v.fft_half / v.fs) for hz in (1.0, 2.0))
        rows = slice(100, 300)
        mass1 = (np.abs(v.values[rows, b1 - 2 : b1 + 3]) ** 2).sum()
        mass2 = (np.abs(v.values[rows, b2 - 2 : b2 + 3]) ** 2).sum()
        assert mass2 > mass1

    def test_overlapping_bouts_rejected(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        bouts = [
            BoutModel(start_s=0.0, end_s=20.0, if_profile=ConstantProfile(1.0),
                      shape=shape),
            BoutModel(start_s=15.0, end_s=35.0, if_profile=ConstantProfile(1.0),
                      shape=shape),
        ]
        spec = WalkingModelSpec(fs=50.0, duration_s=40.0, bouts=bouts)
        with pytest.raises(ModelValidationError, match="overlap"):
            synthesize_walk(spec, seed=0)


class TestConditionChecks:
    def test_too_few_cycles_names_c6(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        spec = single_bout_spec(shape, start=1.0, end=6.0)  # 5 cycles at 1 Hz
        with pytest.raises(ModelValidationError, match="C6"):
            synthesize_walk(spec, seed=0)

    def test_fast_if_ramp_names_c2(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        spec = single_bout_spec(shape, if_profile=LinearProfile(0.5, 3.0),
                                start=1.0, end=13.0)
        with pytest.raises(ModelValidationError, match="C2"):
            synthesize_walk(spec, seed=0)

    def test_negative_if_names_c2(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        spec = single_bout_spec(shape, if_profile=ConstantProfile(-1.0))
        with pytest.raises(ModelValidationError, match="C2"):
            synthesize_walk(spec, seed=0)

    def test_fast_am_names_c3(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        spec = single_bout_spec(shape, amp_profile=LinearProfile(0.2, 5.0))
        with pytest.raises(ModelValidationError, match="C3"):
            synthesize_walk(spec, seed=0)

    def test_unnormalized_shape_names_c4(self):
        spec = single_bout_spec(WaveShape([1.0], [0.0]))
        with pytest.raises(ModelValidationError, match="C4"):
            synthesize_walk(spec, seed=0)

    def test_nonpositive_fundamental_names_c4(self):
        shape = WaveShape([0.0, 1.0], [0.0, 0.0]).normalized()
        # fundamental coefficient zero: C4 requires it positive
        spec = single_bout_spec(shape)
        with pytest.raises(ModelValidationError, match="C4"):
            synthesize_walk(spec, seed=0)

    def test_bad_rho_names_c5(self):
        shape = WaveShape([math.sqrt(2.0)], [0.0])
        spec = single_bout_spec(shape)
        spec.noise_rho = 1.0
        with pytest.raises(ModelValidationError, match="C5"):
            synthesize_walk(spec, seed=0)


class TestAr1Noise:
    def test_zero_sd_is_silent(self):
        assert np.all(ar1_noise(100, 0.0, 0.5, np.random.default_rng(1))
                      == 0.0)

    def test_white_noise_lag1(self):
        n = 100_000
        x = ar1_noise(n, 1.0, 0.0, np.random.default_rng(50))
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1 - 0.0) < 3.0 / math.sqrt(n)

    def test_ar_half_lag1(self):
        n = 100_000
        x = ar1_noise(n, 1.0, 0.5, np.random.default_rng(51))
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1 - 0.5) < 3.0 / math.sqrt(n)

    def test_stationary_variance(self):
        n = 200_000
        for rho in (0.0, 0.6, -0.4):
            x = ar1_noise(n, 2.0, rho, np.random.default_rng(52))
            assert np.std(x) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rho", [0.0, 0.6, -0.6, 0.99, -0.99])
    @pytest.mark.parametrize("n", [1, 2, 5000])
    def test_bitwise_equal_to_lfilter(self, n, rho, seed):
        sd = 1.7
        rng = np.random.default_rng(seed)
        x = np.empty(n)
        x[0] = rng.normal(0.0, sd)
        x[1:] = rng.normal(0.0, sd * math.sqrt(1.0 - rho**2), size=n - 1)
        expected = lfilter([1.0], [1.0, -rho], x)
        got = ar1_noise(n, sd, rho, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            ar1_noise(10, 1.0, 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            ar1_noise(10, 1.0, -1.5, np.random.default_rng(0))


class TestSnrHelper:
    def test_sd_hits_requested_snr(self):
        rng = np.random.default_rng(53)
        clean = np.zeros(1000)
        clean[200:800] = rng.normal(size=600)
        mask = np.zeros(1000, dtype=bool)
        mask[200:800] = True
        sd = ar1_sd_for_snr(clean, mask, 10.0)
        power = np.mean(clean[mask] ** 2)
        assert power / sd**2 == pytest.approx(10.0)
