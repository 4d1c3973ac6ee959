"""Peak picking: turn a detection series into an onset sequence.

Indices are visited at a configurable stride; an index is emitted as an
onset when its statistic clears an adaptive threshold and strictly exceeds
every configured neighbor.  Onsets closer than ``min_gap`` seconds to the
previous emission are merged away by skipping ahead, since two sounds less
than a tenth of a second apart are not heard as distinct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .detect import DETECTORS, DetectionSeries

__all__ = [
    "PeakConfig",
    "OnsetSequence",
    "detect_peaks",
    "threshold_value",
    "symmetric_neighbors",
]

ThresholdRule = Literal["mean_scaled", "third_quartile"]


def symmetric_neighbors(r: int) -> tuple[int, ...]:
    """The neighbor offsets -r..-1, 1..r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return tuple(range(-r, 0)) + tuple(range(1, r + 1))


@dataclass(frozen=True)
class PeakConfig:
    """Peak-picking parameters.

    ``hopsize`` and ``neighbors`` are in series-index units.  ``min_gap``
    is in seconds of series time.  The defaults are the energy detector's
    calibrated settings.
    """

    hopsize: int = 1
    neighbors: tuple[int, ...] = symmetric_neighbors(
        DETECTORS["energy"].neighbor_radius)
    threshold_rule: ThresholdRule = "mean_scaled"
    threshold_scale: float = 1.0
    min_gap: float = 0.1

    def __post_init__(self):
        if self.hopsize < 1:
            raise ValueError("hopsize must be >= 1")
        neighbors = tuple(int(a) for a in self.neighbors)
        if not neighbors or any(a == 0 for a in neighbors):
            raise ValueError("neighbors must be non-empty and non-zero")
        if self.threshold_rule not in ("mean_scaled", "third_quartile"):
            raise ValueError(f"unknown threshold rule: {self.threshold_rule}")
        if self.threshold_scale <= 0:
            raise ValueError("threshold_scale must be positive")
        if self.min_gap <= 0:
            raise ValueError("min_gap must be positive")
        object.__setattr__(self, "neighbors", neighbors)


@dataclass(frozen=True)
class OnsetSequence:
    """Strictly increasing event times, in seconds or beat units."""

    times: np.ndarray = field(repr=False)
    unit: Literal["seconds", "beats"] = "seconds"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.all(np.isfinite(times)):
            raise ValueError("onset times must be finite")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
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
        return json.dumps([float(t) for t in self.times])


def threshold_value(series: DetectionSeries, rule: ThresholdRule,
                    scale: float = 1.0) -> float:
    """Adaptive threshold: scaled mean, or the interpolated 3rd quartile."""
    values = series.values
    if len(values) == 0:
        raise ValueError("empty series")
    if rule == "mean_scaled":
        return scale * float(np.mean(values))
    if rule == "third_quartile":
        return float(np.quantile(values, 0.75))
    raise ValueError(f"unknown threshold rule: {rule}")


def detect_peaks(series: DetectionSeries, config: PeakConfig) -> OnsetSequence:
    """Pick onset times from a detection series.

    Visits indices 0, h, 2h, ...; index k is emitted iff T[k] strictly
    exceeds the threshold and T[k] > T[k + a] for every neighbor offset a
    (out-of-range neighbors count as 0, so boundary peaks remain
    detectable).  After an emission at time t, iteration resumes at the
    first index whose time exceeds t + min_gap.
    """
    values = series.values
    times = series.times
    n = len(values)
    if n == 0:
        raise ValueError("empty series")
    thr = threshold_value(series, config.threshold_rule, config.threshold_scale)

    onsets: list[float] = []
    k = 0
    while k < n:
        if values[k] > thr and _beats_neighbors(values, k, config.neighbors):
            onsets.append(float(times[k]))
            resume = np.searchsorted(times, times[k] + config.min_gap, "right")
            if resume <= k:  # guard against pathological time grids
                resume = k + config.hopsize
            k = int(resume)
        else:
            k += config.hopsize
    return OnsetSequence(times=np.asarray(onsets), unit="seconds")


def _beats_neighbors(values: np.ndarray, k: int,
                     neighbors: Sequence[int]) -> bool:
    n = len(values)
    for a in neighbors:
        j = k + a
        other = values[j] if 0 <= j < n else 0.0
        if not values[k] > other:
            return False
    return True
