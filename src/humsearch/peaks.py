"""Peak picking: turn a detection series into an onset sequence.

An index is a candidate when its statistic clears an adaptive threshold
and strictly exceeds every configured neighbor; the candidates are found
by whole-array comparisons.  They are then merged in time order: a
candidate closer than ``min_gap`` seconds to the previous emission is
dropped, since two sounds less than a tenth of a second apart are not
heard as distinct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .detect import DetectionSeries

__all__ = [
    "PeakConfig",
    "OnsetSequence",
    "detect_peaks",
    "threshold_value",
    "symmetric_neighbors",
]

ThresholdRule = Literal["mean", "q3"]


def symmetric_neighbors(r: int) -> tuple[int, ...]:
    """The neighbor offsets -r..-1, 1..r."""
    if r < 1:
        raise ValueError(f"neighbor radius must be >= 1, got {r}")
    return tuple(range(-r, 0)) + tuple(range(1, r + 1))


@dataclass(frozen=True)
class PeakConfig:
    """Peak-picking parameters.

    ``neighbors`` are in series-index units and have no default: each
    detector has its own calibrated radius (``detect.DETECTORS``).
    ``min_gap`` is in seconds of series time.
    """

    neighbors: tuple[int, ...]
    threshold_rule: ThresholdRule = "mean"
    threshold_scale: float = 1.0
    min_gap: float = 0.1

    def __post_init__(self):
        neighbors = tuple(int(a) for a in self.neighbors)
        if not neighbors or any(a == 0 for a in neighbors):
            raise ValueError("neighbors must be non-empty and non-zero")
        if self.threshold_rule not in get_args(ThresholdRule):
            raise ValueError(f"unknown threshold rule: {self.threshold_rule}")
        if not self.threshold_scale > 0:  # NaN too
            raise ValueError("threshold_scale must be positive")
        if not self.min_gap > 0:
            raise ValueError("min_gap must be positive")
        object.__setattr__(self, "neighbors", neighbors)


@dataclass(frozen=True)
class OnsetSequence:
    """Strictly increasing event times, in seconds or beat units."""

    times: np.ndarray = field(repr=False)
    unit: Literal["seconds", "beats"] = "seconds"

    def __post_init__(self):
        try:
            times = np.asarray(self.times, dtype=np.float64)
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError("onset times must be finite") from None
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        # A strict rise (pairwise, as np.diff could overflow) from a first
        # time above -inf to a last below +inf makes every time finite, as
        # NaN fails every comparison; the finiteness scan words a rejection.
        if len(times) and not (times[0] > -np.inf and times[-1] < np.inf
                               and (times[1:] > times[:-1]).all()):
            if not np.all(np.isfinite(times)):
                raise ValueError("onset times must be finite")
            raise ValueError("onset times must be strictly increasing")
        if self.unit not in ("seconds", "beats"):
            raise ValueError(f"unknown unit: {self.unit}")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    def to_text(self) -> str:
        """One time per line, six decimals."""
        return "".join(f"{t:.6f}\n" for t in self.times)

    def to_json(self) -> str:
        return json.dumps(self.times.tolist())


def threshold_value(series: DetectionSeries, rule: ThresholdRule,
                    scale: float = 1.0) -> float:
    """Adaptive threshold: ``scale`` times the mean or the interpolated
    3rd quartile."""
    values = series.values
    if len(values) == 0:
        raise ValueError("empty series")
    if rule == "mean":
        return scale * float(np.mean(values))
    if rule == "q3":
        return scale * float(np.quantile(values, 0.75))
    raise ValueError(f"unknown threshold rule: {rule}")


def detect_peaks(series: DetectionSeries, config: PeakConfig) -> OnsetSequence:
    """Pick onset times from a detection series.

    Index k is a candidate iff T[k] strictly exceeds the threshold and
    T[k] > T[k + a] for every neighbor offset a (out-of-range neighbors
    count as 0, so boundary peaks remain detectable).  Candidates are
    taken in time order: candidate time t is emitted iff it exceeds the
    last emitted time plus min_gap.
    """
    values = series.values
    n = len(values)
    candidate = values > threshold_value(series, config.threshold_rule,
                                         config.threshold_scale)
    reach = max(abs(a) for a in config.neighbors)
    padded = np.zeros(n + 2 * reach)
    padded[reach:reach + n] = values
    for a in config.neighbors:
        candidate &= values > padded[reach + a:reach + a + n]

    onsets: list[float] = []
    last = -np.inf
    for t in series.times[candidate].tolist():
        if t > last + config.min_gap:
            onsets.append(t)
            last = t
    return OnsetSequence(times=np.asarray(onsets), unit="seconds")
