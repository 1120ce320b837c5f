"""Configuration defaults, file parsing, and derived parameters."""

import math

import pytest

from gaitcadence.config import PipelineConfig, load_config, parse_config_file
from gaitcadence.errors import ConfigError


class TestDefaults:
    def test_reference_parameterization(self):
        cfg = PipelineConfig()
        assert cfg.window_span_s == 12.0
        assert cfg.gamma == 0.3
        assert cfg.upsilon == 1e-9
        assert cfg.ridge_lambda == 1.0
        assert cfg.band_hz == (0.3, 2.5)
        assert cfg.hop == 1
        assert cfg.sigma == 0.15

    def test_window_half(self):
        cfg = PipelineConfig()
        assert cfg.window_half(100.0) == 600  # 12 s at 100 Hz -> 1201 samples

    def test_fft_half_auto_power_of_two(self):
        cfg = PipelineConfig()
        K = cfg.window_half(100.0)
        M = cfg.fft_half(K)
        assert 2 * M == 8192  # smallest power of two >= 4 * 1201
        assert 2 * M >= 2 * K + 1

    def test_fft_half_explicit(self):
        cfg = PipelineConfig(fft_pad="4096")
        assert cfg.validate().fft_half(600) == 2048
        with pytest.raises(ConfigError):
            PipelineConfig(fft_pad="100").fft_half(600)  # shorter than window


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# pipeline settings\n"
            "window_span_s = 8\n"
            "gamma = 0.4   # soft-log power\n"
            "lambda = 2.5\n"
            "hop = 10\n"
            "\n"
        )
        cfg = load_config(p)
        assert cfg.window_span_s == 8.0
        assert cfg.gamma == 0.4
        assert cfg.ridge_lambda == 2.5
        assert cfg.hop == 10
        assert cfg.upsilon == 1e-9  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("window_span = 8\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("hop = fast\n")
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("gamma 0.3\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("gamma = 0.4\n")
        cfg = load_config(p, gamma=0.7)
        assert cfg.gamma == 0.7


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("window_span_s", 0.0),
        ("sigma", -1.0),
        ("gamma", 0.0),
        ("upsilon", 0.0),
        ("ridge_lambda", -0.5),
        ("hop", 0),
        ("fft_pad", "12.5"),
        ("fft_pad", "999"),  # odd
        ("fs", -100.0),
        ("location", "foo"),
    ] + [(field, value)
         for field in ("window_span_s", "sigma", "gamma", "upsilon",
                       "ridge_lambda", "band_lo_hz", "band_hi_hz", "fs")
         for value in (math.nan, math.inf, -math.inf)])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            PipelineConfig(**{field: value}).validate()

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigError):
            PipelineConfig(band_lo_hz=3.0, band_hi_hz=1.0).validate()

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, not_a_field=1.0)
