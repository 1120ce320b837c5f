"""Gait cadence estimation from single-sensor accelerometry.

The pipeline rectifies the detrended acceleration magnitude, computes its
de-shape synchrosqueezed time-frequency representation (an STFT whose
harmonics are removed by a cepstral mask, then sharpened by frequency
reassignment), extracts the fundamental ridge with a penalized dynamic
program, and doubles the ridge frequency to obtain steps per second.
"""

__version__ = "0.1.0"

from .analysis import (BAStats, BoutInterval, SummaryRow, bland_altman,
                       bout_cadence_summary, validate_bouts, LABEL_NAMES)
from .config import PipelineConfig, load_config, parse_config_file
from .errors import (CadenceError, ConfigError, DataFormatError,
                     ModelValidationError, ParameterError, StructuralError)
from .pipeline import (BoutAnalysis, RunReport, analyze_bout, analyze_signal,
                       extract_bout_ridge, preprocess, run_pipeline)
from .ridge import (CadenceTrace, RidgeCurve, band_to_bins, cadence_from_ridge,
                    ridge_dp)
from .signal import (Signal, TriaxialRecord, Window, gaussian_window,
                     median_detrend, rectify, vector_magnitude)
from .synth import (BoutModel, ConstantProfile, LinearProfile, SynthResult,
                    WalkingModelSpec, WaveShape, ar1_noise, ar1_sd_for_snr,
                    synthesize_walk)
from .tfr import (OmegaMatrix, TFRGrid, deshape, istct, reassignment_operator,
                  stct, stft, synchrosqueeze)

__all__ = [
    "__version__",
    "BAStats", "BoutAnalysis", "BoutInterval", "BoutModel", "CadenceError",
    "CadenceTrace", "ConfigError", "ConstantProfile", "DataFormatError",
    "LABEL_NAMES", "LinearProfile", "ModelValidationError", "OmegaMatrix",
    "ParameterError", "PipelineConfig", "RidgeCurve", "RunReport", "Signal",
    "StructuralError", "SummaryRow", "SynthResult", "TFRGrid",
    "TriaxialRecord", "WalkingModelSpec", "WaveShape", "Window",
    "analyze_bout", "analyze_signal", "ar1_noise", "ar1_sd_for_snr",
    "band_to_bins", "bland_altman", "bout_cadence_summary",
    "cadence_from_ridge", "deshape", "extract_bout_ridge",
    "gaussian_window", "istct", "load_config", "median_detrend",
    "parse_config_file", "preprocess", "reassignment_operator", "rectify",
    "ridge_dp", "run_pipeline", "stct", "stft", "synchrosqueeze",
    "synthesize_walk", "validate_bouts", "vector_magnitude",
]
