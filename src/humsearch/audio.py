"""WAV ingestion.

Audio enters the system as a :class:`Signal`: a finite sequence of real
amplitudes on a nominal [-1, 1] full scale, together with its sampling
frequency.  Everything downstream (detection statistics, power analysis)
consumes this representation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Signal", "load_wav"]


@dataclass(frozen=True)
class Signal:
    """A finite real-valued sample sequence with its sampling frequency.

    Attributes
    ----------
    samples : ndarray of float64
        Amplitudes, nominal full scale [-1, 1].
    sample_rate : int
        Samples per second (Hz), strictly positive.
    """

    samples: np.ndarray = field(repr=False)
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _finite(cls, samples: np.ndarray, sample_rate: int) -> Signal:
        """A Signal of 1-D float64 ``samples`` known to be finite, as
        decoded integer PCM is, with every check but the finiteness scan."""
        signal = cls(np.empty(0), sample_rate)  # the sample-rate check
        object.__setattr__(signal, "samples", samples)
        return signal

    def __len__(self) -> int:
        return len(self.samples)


# WAVE format tags we accept.
_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def load_wav(path) -> Signal:
    """Read a PCM WAV file into a :class:`Signal`.

    Supports 8/16/24-bit integer and 32-bit float PCM, mono or stereo.
    Stereo is mixed down by the per-sample arithmetic mean of the two
    channels.  Integer samples are scaled to [-1, 1] by the full-scale
    magnitude of their type; float samples outside [-1, 1] are clamped.

    Raises
    ------
    OSError
        If the file cannot be read.
    ValueError
        If the file is not a supported PCM WAV or has no audio frames.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode_wav(data)


def _decode_wav(data: bytes) -> Signal:
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")

    fmt = payload = None
    view = memoryview(data)
    offset = 12
    while offset + 8 <= len(data):
        chunk_id, size = struct.unpack_from("<4sI", data, offset)
        start = offset + 8
        body = view[start:start + size]  # cut short at the end
        offset = start + size + size % 2  # chunks are word-aligned
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload, payload_start = body, start

    if fmt is None or len(fmt) < 16:
        raise ValueError("missing fmt chunk")
    if payload is None:
        raise ValueError("missing data chunk")

    (format_tag, channels, sample_rate, _byte_rate, _block_align,
     bits) = struct.unpack_from("<HHIIHH", fmt)
    if format_tag == _WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 26:
        # sub-format GUID starts with the effective format tag
        format_tag = struct.unpack_from("<H", fmt, 24)[0]

    if format_tag == _WAVE_FORMAT_PCM:
        if bits not in (8, 16, 24):
            raise ValueError(f"unsupported PCM bit depth: {bits}")
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise ValueError(f"unsupported float bit depth: {bits}")
    else:
        raise ValueError(f"non-PCM encoding (format tag 0x{format_tag:04x})")
    if channels not in (1, 2):
        raise ValueError(f"unsupported channel count: {channels}")

    width = bits // 8
    n_frames = len(payload) // (width * channels)
    if n_frames == 0:
        raise ValueError("zero-length audio")
    n = n_frames * channels

    if format_tag == _WAVE_FORMAT_PCM:
        # sample k is the top `width` bytes of the little-endian int32 that
        # ends with it, so an arithmetic shift leaves its signed value; the
        # low bytes come from the chunk header or the sample before, and the
        # body starts at byte 20 or later, so the first int32 lies in `data`
        samples = np.ndarray(n, "<i4", data, payload_start - (4 - width),
                             strides=(width,)) >> (32 - bits)
        if bits == 8:  # unsigned with midpoint 128: u - 128
            samples ^= -128
        scale = 1 << (bits - 1)
    else:  # 32-bit float; a signalling NaN stays NaN, rejected by Signal
        with np.errstate(invalid="ignore"):
            samples = np.frombuffer(payload, "<f4", n).astype(np.float64)
        np.clip(samples, -1.0, 1.0, out=samples)
        scale = 1

    if channels == 2:  # an integer sum is exact: the float mean, bit for bit
        samples = samples[0::2] + samples[1::2]
        scale *= 2
    # integers take their one float64 copy here; floats divide in place
    samples = np.divide(samples, scale,
                        out=samples if samples.dtype == np.float64 else None)
    if format_tag == _WAVE_FORMAT_PCM:  # integers hold no NaN or infinity
        return Signal._finite(samples, int(sample_rate))
    return Signal(samples=samples, sample_rate=int(sample_rate))
