"""Discrete Fourier transform and the band-limited short-time transform.

The DFT here is unitary (1/sqrt(N) scaling) so that Parseval's identity
holds exactly: ``norm(dft(x)) == norm(x)``.  The short-time transform used
by the spectral detection functions is the magnitude of the plain
unnormalized window DFT of a hopping rectangular window.  The detectors
read only the low band (``CUTOFF_HZ``, 1 kHz), so each frame is
transformed with a real FFT and only its bins at or below the cutoff are
kept.  Window and hop have no defaults here; :func:`.detect.run_detector`
fills in the detectors'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import Signal

__all__ = [
    "CUTOFF_HZ",
    "Spectrogram",
    "dft",
    "stft",
    "band_limit_bins",
]

# The detectors' band: humming carries essentially no onset information
# above 1 kHz (fundamental 80-200 Hz plus a few harmonics).
CUTOFF_HZ = 1000.0
# one-sided spectrum bytes that ``stft`` transforms at a time (63 frames
# of a 4096-sample window)
_BLOCK_BYTES = 2 ** 21


@dataclass(frozen=True)
class Spectrogram:
    """Low-band short-time Fourier magnitudes with window/hop metadata.

    ``frames[n, k]`` is the magnitude of the unnormalized window-DFT
    coefficient of frame ``n`` at frequency bin ``k`` for the K lowest
    bins, ``k = 0 .. K-1``; bin ``k`` is ``k * sample_rate /
    window_length`` Hz at the signal's sample rate.  Frame ``n`` covers
    the sample range ``[n * hop, n * hop + window_length)`` and is stamped
    with the time of the window center.
    """

    frames: np.ndarray = field(repr=False)
    window_length: int
    hop: int
    frame_times: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = self.window_length
        if w < 2 or w & (w - 1):
            raise ValueError("window_length must be a power of two >= 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        max_bins = w // 2 + 1
        if self.frames.ndim != 2 or not 1 <= self.frames.shape[1] <= max_bins:
            raise ValueError("frames must be (n_frames, K) with "
                             "1 <= K <= window_length // 2 + 1")
        if len(self.frame_times) != len(self.frames):
            raise ValueError("frame_times length must match frame count")
        if np.iscomplexobj(self.frames) or np.any(self.frames < 0):
            raise ValueError("frames must be real, non-negative magnitudes")

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


def frame_parts(samples: np.ndarray, window_length: int,
                hop: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``max(1, ceil(n / hop))`` frames of ``window_length`` samples
    that start at multiples of ``hop`` in a signal of ``n`` samples (with
    ``hop > window_length`` the samples between frames are skipped), in
    two parts: the frames wholly inside the signal, a read-only view of
    ``samples``, then the rest, from a zero-padded copy of the tail only."""
    if window_length < 1 or hop < 1:
        raise ValueError("window_length and hop must be >= 1")
    if len(samples) < 1:
        raise ValueError("empty signal")
    n = max(1, -(-len(samples) // hop))
    inside = max(0, (len(samples) - window_length) // hop + 1)
    step = samples.strides[0]
    head = np.lib.stride_tricks.as_strided(
        samples, (inside, window_length), (hop * step, step), writeable=False)
    rest = samples[inside * hop:]
    # one window at least, so that the view exists when no frame is left
    tail = np.zeros((max(n - inside, 1) - 1) * hop + window_length)
    tail[:len(rest)] = rest
    view = np.lib.stride_tricks.sliding_window_view(tail, window_length)
    return head, view[::hop][:n - inside]


def frame_times(n_frames: int, window_length: int, hop: int,
                sample_rate: int) -> np.ndarray:
    """Window-center time stamp for each frame, in seconds."""
    starts = np.arange(n_frames) * hop
    return (starts + window_length / 2) / sample_rate


def stft(signal: Signal, window_length: int, hop: int,
         cutoff_hz: float = CUTOFF_HZ) -> Spectrogram:
    """Band-limited short-time Fourier magnitudes with a rectangular
    window.

    Each frame goes through a real FFT and only the magnitudes of its K =
    :func:`band_limit_bins` bins at or below ``cutoff_hz`` are kept; the
    default cutoff is the detectors' band, ``CUTOFF_HZ``.  Frames are
    transformed in blocks of about ``_BLOCK_BYTES`` of spectrum, so the
    full one-sided spectrum of a long recording never exists at once.
    Magnitudes are those of the unnormalized window DFT (no 1/sqrt(w)
    factor), so with the cutoff at Nyquist, per frame
    ``|X_0|^2 + 2 sum_{0<k<w/2} |X_k|^2 + |X_{w/2}|^2 == w * sum_m x[m]^2``.
    Frames that reach past the end read a zero-padded copy of the tail;
    the others are read in place.
    """
    k = band_limit_bins(window_length, signal.sample_rate, cutoff_hz)
    block = max(1, _BLOCK_BYTES // (16 * (window_length // 2 + 1)))
    # each block's full spectrum is freed before the next one is transformed
    mags = np.concatenate([
        np.abs(np.fft.rfft(frames[start:start + block], axis=1)[:, :k])
        for frames in frame_parts(signal.samples, window_length, hop)
        for start in range(0, len(frames), block)])
    times = frame_times(len(mags), window_length, hop, signal.sample_rate)
    return Spectrogram(
        frames=mags,
        window_length=window_length,
        hop=hop,
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
