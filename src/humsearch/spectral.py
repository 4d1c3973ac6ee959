"""Discrete Fourier transform and the band-limited short-time transform.

The DFT here is unitary (1/sqrt(N) scaling) so that Parseval's identity
holds exactly: ``norm(dft(x)) == norm(x)``.  The short-time transform used
by the spectral detection functions is the plain unnormalized window DFT
of a hopping rectangular window.  The detectors read only the low band
(1 kHz at the defaults), so each frame is transformed with a real FFT and
only its bins at or below the cutoff are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import Signal

__all__ = [
    "WINDOW_LENGTH",
    "CUTOFF_HZ",
    "Spectrogram",
    "dft",
    "stft",
    "band_limit_bins",
]

# The detectors' analysis window in samples and their band (``detect``
# re-exports both).
WINDOW_LENGTH = 4096
# Humming carries essentially no onset information above 1 kHz
# (fundamental 80-200 Hz plus a few harmonics).
CUTOFF_HZ = 1000.0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Spectrogram:
    """Low-band complex short-time Fourier coefficients with window/hop
    metadata.

    ``frames[n, k]`` is the unnormalized window-DFT coefficient of frame
    ``n`` at frequency bin ``k`` (``k * sample_rate / window_length`` Hz)
    for the K lowest bins, ``k = 0 .. K-1``.  Frame ``n`` covers the
    sample range ``[n * hop, n * hop + window_length)`` and is stamped
    with the time of the window center.
    """

    frames: np.ndarray = field(repr=False)
    window_length: int
    hop: int
    sample_rate: int
    frame_times: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not _is_power_of_two(self.window_length) or self.window_length < 2:
            raise ValueError("window_length must be a power of two >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        max_bins = self.window_length // 2 + 1
        if self.frames.ndim != 2 or not 1 <= self.frames.shape[1] <= max_bins:
            raise ValueError("frames must be (n_frames, K) with "
                             "1 <= K <= window_length // 2 + 1")
        if len(self.frame_times) != len(self.frames):
            raise ValueError("frame_times length must match frame count")

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def dft(x) -> np.ndarray:
    """Unitary discrete Fourier transform.

    ``y[k] = (1/sqrt(N)) * sum_n x[n] exp(-2 pi i k n / N)``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("empty input")
    return np.fft.fft(x, norm="ortho")


def frame_count(n_samples: int, hop: int) -> int:
    """Number of analysis frames for a signal of ``n_samples``: ceil(n/hop),
    at least 1."""
    return max(1, -(-n_samples // hop))


def frame_signal(samples: np.ndarray, window_length: int, hop: int) -> np.ndarray:
    """Slice a signal into ``ceil(len/hop)`` frames of ``window_length``
    samples starting at multiples of ``hop``, zero-padding past the end
    (with ``hop > window_length`` the samples between frames are skipped)."""
    n = frame_count(len(samples), hop)
    padded_len = max((n - 1) * hop + window_length, len(samples))
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: len(samples)] = samples
    view = np.lib.stride_tricks.sliding_window_view(padded, window_length)
    return view[::hop][:n]


def frame_times(n_frames: int, window_length: int, hop: int,
                sample_rate: int) -> np.ndarray:
    """Window-center time stamp for each frame, in seconds."""
    starts = np.arange(n_frames) * hop
    return (starts + window_length / 2) / sample_rate


def stft(signal: Signal, window_length: int, hop: int,
         cutoff_hz: float = CUTOFF_HZ) -> Spectrogram:
    """Band-limited short-time Fourier transform with a rectangular window.

    Each frame goes through a real FFT and only its K =
    :func:`band_limit_bins` bins at or below ``cutoff_hz`` are kept; the
    default cutoff is the detectors' band, ``CUTOFF_HZ``.
    Coefficients are the unnormalized window DFT (no 1/sqrt(w) factor), so
    with the cutoff at Nyquist, per frame
    ``|X_0|^2 + 2 sum_{0<k<w/2} |X_k|^2 + |X_{w/2}|^2 == w * sum_m x[m]^2``.
    The tail is zero-padded so that frame times cover the full recording.
    """
    if not _is_power_of_two(window_length) or window_length < 2:
        raise ValueError("window_length must be a power of two >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if len(signal) < 1:
        raise ValueError("empty signal")
    k = band_limit_bins(window_length, signal.sample_rate, cutoff_hz)
    frames = frame_signal(signal.samples, window_length, hop)
    # a copy, so that the bins above the band are freed at once
    coeffs = np.fft.rfft(frames, axis=1)[:, :k].copy()
    times = frame_times(len(frames), window_length, hop, signal.sample_rate)
    return Spectrogram(
        frames=coeffs,
        window_length=window_length,
        hop=hop,
        sample_rate=signal.sample_rate,
        frame_times=times,
    )


def band_limit_bins(window_length: int, sample_rate: int,
                    cutoff_hz: float) -> int:
    """Number of low-frequency bins K whose real frequency is at most
    ``cutoff_hz``: the bins ``0 .. K-1`` that :func:`stft` keeps."""
    nyquist = sample_rate / 2
    if not 0 < cutoff_hz <= nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, Nyquist={nyquist}]")
    return int(cutoff_hz * window_length // sample_rate) + 1
