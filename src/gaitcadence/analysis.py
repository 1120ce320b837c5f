"""Per-activity cadence summaries and Bland-Altman agreement statistics."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ParameterError
from .ridge import CadenceTrace

logger = logging.getLogger(__name__)

LABEL_NAMES = {
    0: "other",
    1: "walking",
    2: "descending_stairs",
    3: "ascending_stairs",
}

LOA_Z = 1.96  # standard Bland-Altman limits-of-agreement multiplier


@dataclass
class BoutInterval:
    """Labeled time interval; membership is half-open [start_s, end_s)."""

    start_s: float
    end_s: float
    label: int

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ParameterError(
                f"bout bounds must be finite, got [{self.start_s}, {self.end_s}]"
            )
        if not self.end_s > self.start_s:
            raise ParameterError(
                f"bout must have positive length, got [{self.start_s}, {self.end_s}]"
            )
        if self.label not in LABEL_NAMES:
            raise ParameterError(
                f"unknown activity label {self.label}; expected one of "
                f"{sorted(LABEL_NAMES)}"
            )

    def contains(self, times: np.ndarray) -> np.ndarray:
        return (times >= self.start_s) & (times < self.end_s)


def validate_bouts(intervals) -> list[BoutInterval]:
    """Sort intervals by start and reject overlaps."""
    bouts = sorted(intervals, key=lambda b: b.start_s)
    for prev, cur in zip(bouts, bouts[1:]):
        if cur.start_s < prev.end_s:
            raise ParameterError(
                f"bouts overlap: [{prev.start_s}, {prev.end_s}] and "
                f"[{cur.start_s}, {cur.end_s}]"
            )
    return bouts


@dataclass
class SummaryRow:
    """Pooled cadence statistics for one (location, activity) pair."""

    location: str
    label: int
    mean_cadence_hz: float
    sd_cadence_hz: float
    n_frames: int
    duration_s: float

    @property
    def label_name(self) -> str:
        return LABEL_NAMES[self.label]


def bout_cadence_summary(trace: CadenceTrace, bouts, location: str = "other"
                         ) -> list[SummaryRow]:
    """Pool cadence frames per activity label and summarize them.

    The mean and population (1/n) standard deviation are reported per label,
    together with the frame count and the covered duration. Labels whose
    bouts contain no trace frames are omitted with a notice.
    """
    bouts = validate_bouts(bouts)
    rows = []
    for label in sorted({b.label for b in bouts}):
        mask = np.zeros(len(trace), dtype=bool)
        for b in bouts:
            if b.label == label:
                mask |= b.contains(trace.times)
        pooled = trace.cadence_hz[mask]
        if pooled.size == 0:
            logger.info("no trace frames for label %d (%s); row omitted",
                        label, LABEL_NAMES[label])
            continue
        rows.append(SummaryRow(
            location=location,
            label=label,
            mean_cadence_hz=float(pooled.mean()),
            sd_cadence_hz=float(pooled.std(ddof=0)),
            n_frames=int(pooled.size),
            duration_s=float(pooled.size * trace.frame_dt),
        ))
    return rows


@dataclass
class BAStats:
    """Bland-Altman agreement between two paired cadence traces."""

    mean_diff: float
    sd_diff: float
    loa_low: float
    loa_high: float
    n: int

    def __post_init__(self):
        if not (self.loa_low <= self.mean_diff <= self.loa_high):
            raise ParameterError("limits of agreement must bracket the mean")

    def mean_ci(self) -> tuple[float, float]:
        """Normal-theory 95% confidence interval for the mean difference."""
        se = self.sd_diff / math.sqrt(self.n)
        return self.mean_diff - LOA_Z * se, self.mean_diff + LOA_Z * se

    def loa_ci_margin(self) -> float:
        """Half-width of the normal-theory 95% CI around each agreement limit."""
        return LOA_Z * self.sd_diff * math.sqrt(3.0 / self.n)


def _nearest_values(times: np.ndarray, src_times: np.ndarray,
                    src_values: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(src_times, times)
    idx = np.clip(idx, 1, src_times.size - 1) if src_times.size > 1 else np.zeros_like(idx)
    left = idx - 1
    pick_left = np.abs(times - src_times[left]) <= np.abs(src_times[idx] - times)
    return src_values[np.where(pick_left, left, idx)]


def bland_altman(a: CadenceTrace, b: CadenceTrace) -> BAStats:
    """Agreement statistics for the paired differences ``a - b``.

    Both traces are brought onto the coarser of the two frame grids within
    the overlap of their time supports (nearest-frame lookup), then the mean
    difference, its population SD, and the 1.96-SD limits of agreement are
    computed.
    """
    t_lo = max(a.times[0], b.times[0])
    t_hi = min(a.times[-1], b.times[-1])
    if t_hi < t_lo:
        raise DataFormatError("traces have disjoint time supports")

    # Resample to the coarser grid; ties go to the earlier-starting trace.
    if a.frame_dt > b.frame_dt or (a.frame_dt == b.frame_dt
                                   and a.times[0] <= b.times[0]):
        ref = a
    else:
        ref = b
    keep = (ref.times >= t_lo) & (ref.times <= t_hi)
    grid = ref.times[keep]
    if grid.size == 0:
        raise DataFormatError("traces have no overlapping frames")

    av = _nearest_values(grid, a.times, a.cadence_hz)
    bv = _nearest_values(grid, b.times, b.cadence_hz)
    d = av - bv
    mean = float(d.mean())
    sd = float(d.std(ddof=0))
    return BAStats(
        mean_diff=mean,
        sd_diff=sd,
        loa_low=mean - LOA_Z * sd,
        loa_high=mean + LOA_Z * sd,
        n=int(d.size),
    )
