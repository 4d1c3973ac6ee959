"""The three onset detection functions and their calibrated defaults.

Each detector reduces a recording to a series T[n] of non-negative
statistics over a sliding window, designed to spike at note onsets:

* local energy: sum of squared samples per window;
* spectral dissimilarity: sum of positive frame-to-frame STFT magnitude
  increases over the low band;
* dominant spectral dissimilarity: positive frame-to-frame increase of the
  squared maximum low-band bin magnitude.

``DETECTORS`` is the one table of per-detector defaults (CLI name, hop,
peak-picking neighbor radius); ``WINDOW_LENGTH`` and ``CUTOFF_HZ``, shared
by all of them, are defined in :mod:`.spectral` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import spectral
from .audio import Signal
from .spectral import (CUTOFF_HZ, WINDOW_LENGTH, Spectrogram, frame_signal,
                       frame_times)

__all__ = [
    "DetectionSeries",
    "DetectorDefaults",
    "DetectorKind",
    "DETECTORS",
    "WINDOW_LENGTH",
    "CUTOFF_HZ",
    "energy_detector",
    "spectral_dissimilarity",
    "dominant_spectral_dissimilarity",
    "run_detector",
]

DetectorKind = Literal[
    "energy", "spectral_dissimilarity", "dominant_spectral_dissimilarity"
]


@dataclass(frozen=True)
class DetectorDefaults:
    """Calibrated settings of one detector: its CLI name, its hop in
    samples and the neighbors compared on each side in peak picking."""

    cli_name: str
    hop: int
    neighbor_radius: int


DETECTORS: dict[str, DetectorDefaults] = {
    "energy": DetectorDefaults("energy", hop=512, neighbor_radius=8),
    "spectral_dissimilarity": DetectorDefaults("sd", hop=2048,
                                               neighbor_radius=4),
    "dominant_spectral_dissimilarity": DetectorDefaults("dsd", hop=2048,
                                                        neighbor_radius=2),
}


@dataclass(frozen=True)
class DetectionSeries:
    """A detection-function series T[n] with per-value time stamps."""

    values: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    hop: int
    window_length: int
    detector_kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.float64)
        if len(values) != len(times):
            raise ValueError("values and times must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("detection statistics are non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.values)


def energy_detector(signal: Signal, window_length: int = WINDOW_LENGTH,
                    hop: int = DETECTORS["energy"].hop) -> DetectionSeries:
    """Local energy per hopping window: ``T[n] = sum_i x[n*h + i]^2``."""
    if window_length < 1 or hop < 1:
        raise ValueError("window_length and hop must be >= 1")
    if len(signal) < 1:
        raise ValueError("empty signal")
    frames = frame_signal(signal.samples, window_length, hop)
    values = np.einsum("ij,ij->i", frames, frames)
    times = frame_times(len(frames), window_length, hop, signal.sample_rate)
    return DetectionSeries(
        values=values,
        times=times,
        hop=hop,
        window_length=window_length,
        detector_kind="energy",
    )


def _magnitudes(spectrogram: Spectrogram) -> np.ndarray:
    if spectrogram.n_frames < 2:
        raise ValueError("need at least 2 frames")
    return np.abs(spectrogram.frames)


def spectral_dissimilarity(spectrogram: Spectrogram) -> DetectionSeries:
    """Sum of positive bin-magnitude increases between consecutive frames,
    over every bin of the (band-limited) spectrogram.  T[0] is defined as
    0."""
    mags = _magnitudes(spectrogram)
    diffs = np.diff(mags, axis=0)
    values = np.where(diffs > 0, diffs, 0.0).sum(axis=1)
    values = np.concatenate([[0.0], values])
    return DetectionSeries(
        values=values,
        times=spectrogram.frame_times,
        hop=spectrogram.hop,
        window_length=spectrogram.window_length,
        detector_kind="spectral_dissimilarity",
    )


def dominant_spectral_dissimilarity(
        spectrogram: Spectrogram) -> DetectionSeries:
    """Positive increase of the squared dominant bin magnitude between
    consecutive frames, over every bin of the (band-limited) spectrogram.
    T[0] is 0."""
    mags = _magnitudes(spectrogram)
    dominant = mags.max(axis=1)
    rises = dominant[1:] > dominant[:-1]
    diffs = dominant[1:] ** 2 - dominant[:-1] ** 2
    values = np.concatenate([[0.0], np.where(rises, diffs, 0.0)])
    return DetectionSeries(
        values=values,
        times=spectrogram.frame_times,
        hop=spectrogram.hop,
        window_length=spectrogram.window_length,
        detector_kind="dominant_spectral_dissimilarity",
    )


def run_detector(signal: Signal, kind: DetectorKind,
                 window_length: int = WINDOW_LENGTH, hop: int | None = None,
                 cutoff_hz: float = CUTOFF_HZ) -> DetectionSeries:
    """Dispatch to one of the three detectors, with the hop from
    ``DETECTORS`` unless ``hop`` is given; the spectral detectors see the
    STFT band at or below ``cutoff_hz``."""
    if kind not in DETECTORS:
        raise ValueError(f"unknown detector kind: {kind}")
    hop = DETECTORS[kind].hop if hop is None else hop
    if kind == "energy":
        return energy_detector(signal, window_length, hop)
    # through the module at call time, so that a wrapper installed on
    # spectral.stft (bench/tracing.py) sees the call
    spectrogram = spectral.stft(signal, window_length, hop, cutoff_hz)
    if kind == "spectral_dissimilarity":
        return spectral_dissimilarity(spectrogram)
    return dominant_spectral_dissimilarity(spectrogram)

