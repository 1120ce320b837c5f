"""Pipeline configuration: defaults, flat key=value files, and derivations."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .signal import VALID_LOCATIONS


@dataclass
class PipelineConfig:
    """All tunables of the cadence pipeline.

    Defaults reproduce the reference parameterization: a 12 s Gaussian
    window, gamma 0.3, threshold 1e-9, and ridge penalty 1.
    """

    window_span_s: float = 12.0
    sigma: float = 0.15  # Gaussian shape on the normalized [-0.5, 0.5] support
    gamma: float = 0.3
    upsilon: float = 1e-9
    ridge_lambda: float = 1.0
    band_lo_hz: float = 0.3
    band_hi_hz: float = 2.5
    hop: int = 1
    fft_pad: str = "auto"  # "auto" or an explicit even DFT length (2M)
    fs: float | None = None  # Hz, read only when the CSV has no t column
    location: str = "other"

    def validate(self) -> "PipelineConfig":
        for key, (name, parser, _) in SETTINGS.items():
            value = getattr(self, name)
            if parser is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.window_span_s <= 0:
            raise ConfigError("window_span_s must be positive")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.upsilon <= 0:
            raise ConfigError("upsilon must be positive")
        if self.ridge_lambda < 0:
            raise ConfigError("lambda must be >= 0")
        if not 0 <= self.band_lo_hz < self.band_hi_hz:
            raise ConfigError("band must satisfy 0 <= low < high")
        if self.hop < 1:
            raise ConfigError("hop must be >= 1")
        if self.fft_pad != "auto":
            try:
                pad = int(self.fft_pad)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"fft_pad must be 'auto' or an even integer, got {self.fft_pad!r}"
                ) from None
            if pad < 2 or pad % 2:
                raise ConfigError("explicit fft_pad must be an even integer >= 2")
        if self.fs is not None and self.fs <= 0:
            raise ConfigError("fs must be positive")
        if self.location not in VALID_LOCATIONS:
            raise ConfigError(f"unknown location {self.location!r}; "
                              f"expected one of {VALID_LOCATIONS}")
        return self

    def window_half(self, fs: float) -> int:
        """Window half-length K; the window spans ``2K + 1`` samples."""
        half = self.window_span_s * fs / 2.0
        if not math.isfinite(half):
            raise ConfigError(
                f"window_span_s={self.window_span_s} at fs={fs} overflows")
        K = int(round(half))
        if K < 1:
            raise ConfigError(
                f"window_span_s={self.window_span_s} at fs={fs} yields a window "
                "shorter than 3 samples"
            )
        return K

    def fft_half(self, K: int) -> int:
        """Half DFT length M (the grid has M + 1 frequency bins)."""
        span = 2 * K + 1
        if self.fft_pad == "auto":
            return 1 << max(1, math.ceil(math.log2(4 * span)) - 1)
        pad = int(self.fft_pad)
        if pad < span:
            raise ConfigError(
                f"fft_pad={pad} is shorter than the window span {span}"
            )
        return pad // 2

    @property
    def band_hz(self) -> tuple[float, float]:
        return (self.band_lo_hz, self.band_hi_hz)


# The settings: config-file key -> (field name, parser, help). Each key is
# also a CLI flag, ``--key-with-dashes``, except the band edges, which share
# ``--band LO:HI`` (its help is on ``band_lo_hz``).
SETTINGS = {
    "window_span_s": ("window_span_s", float, "Analysis window span in seconds."),
    "sigma": ("sigma", float, "Gaussian shape parameter on the normalized support."),
    "gamma": ("gamma", float, "Soft-log power for the cepstral transform."),
    "upsilon": ("upsilon", float, "Magnitude threshold for the reassignment rule."),
    "lambda": ("ridge_lambda", float, "Ridge smoothness penalty."),
    "band_lo_hz": ("band_lo_hz", float, "Fundamental search band in Hz (e.g. 0.3:2.5)."),
    "band_hi_hz": ("band_hi_hz", float, None),
    "hop": ("hop", int, "Frame hop in samples."),
    "fft_pad": ("fft_pad", str, "DFT length 2M: 'auto' or an even integer."),
    "fs": ("fs", float, "Sampling rate when the CSV lacks a time column."),
    "location": ("location", str, "Sensor location tag."),
}


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file; unknown keys are errors."""
    overrides = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field_name, parser, _ = SETTINGS[key]
        try:
            overrides[field_name] = parser(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: invalid value {value!r} for {key!r}"
            ) from None
    return overrides


def load_config(path=None, **overrides) -> PipelineConfig:
    """Build a config from defaults, an optional file, then keyword overrides."""
    values = {}
    if path is not None:
        values.update(parse_config_file(path))
    known = {f.name for f in fields(PipelineConfig)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
        if value is not None:
            values[key] = value
    return PipelineConfig(**values).validate()


def config_as_dict(cfg: PipelineConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}
