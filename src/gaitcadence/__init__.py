"""Gait cadence estimation from single-sensor accelerometry.

The pipeline rectifies the detrended acceleration magnitude, computes its
de-shape synchrosqueezed time-frequency representation (an STFT whose
harmonics are removed by a cepstral mask, then sharpened by frequency
reassignment), extracts the fundamental ridge with a penalized dynamic
program, and doubles the ridge frequency to obtain steps per second.
"""

__version__ = "0.1.0"

from .analysis import BoutInterval
from .config import PipelineConfig, load_config
from .errors import (CadenceError, ConfigError, DataFormatError,
                     ModelValidationError, ParameterError, StructuralError)
from .pipeline import analyze_bout, analyze_signal, run_pipeline

__all__ = [
    "__version__",
    "BoutInterval", "CadenceError", "ConfigError", "DataFormatError",
    "ModelValidationError", "ParameterError", "PipelineConfig",
    "StructuralError", "analyze_bout", "analyze_signal", "load_config",
    "run_pipeline",
]
