"""WAV ingestion.

Audio enters the system as a :class:`Signal`: a finite sequence of real
amplitudes on a nominal [-1, 1] full scale, together with its sampling
frequency.  Everything downstream (detection statistics, power analysis)
consumes this representation.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Signal",
    "WavFormatError",
    "EmptyAudioError",
    "load_wav",
]


class WavFormatError(ValueError):
    """The file is readable but is not a supported PCM WAV."""


class EmptyAudioError(ValueError):
    """The WAV decodes to zero audio frames."""


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

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length of the recording in seconds."""
        return len(self.samples) / self.sample_rate


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
    WavFormatError
        If the file is not a supported PCM WAV.
    EmptyAudioError
        If the file contains no audio frames.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode_wav(data)


def _decode_wav(data: bytes) -> Signal:
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    stream = io.BytesIO(data[12:])
    while True:
        header = stream.read(8)
        if len(header) < 8:
            break
        chunk_id, size = struct.unpack("<4sI", header)
        body = stream.read(size)
        if size % 2:  # chunks are word-aligned
            stream.read(1)
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload = body

    if fmt is None or len(fmt) < 16:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")

    (format_tag, channels, sample_rate, _byte_rate, _block_align,
     bits) = struct.unpack("<HHIIHH", fmt[:16])
    if format_tag == _WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 26:
        # sub-format GUID starts with the effective format tag
        format_tag = struct.unpack("<H", fmt[24:26])[0]

    if format_tag == _WAVE_FORMAT_PCM:
        if bits not in (8, 16, 24):
            raise WavFormatError(f"unsupported PCM bit depth: {bits}")
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise WavFormatError(f"unsupported float bit depth: {bits}")
    else:
        raise WavFormatError(
            f"non-PCM encoding (format tag 0x{format_tag:04x})")
    if channels not in (1, 2):
        raise WavFormatError(f"unsupported channel count: {channels}")

    bytes_per_sample = bits // 8
    frame_size = bytes_per_sample * channels
    n_frames = len(payload) // frame_size
    if n_frames == 0:
        raise EmptyAudioError("zero-length audio")
    payload = payload[: n_frames * frame_size]

    if bits == 8:
        # 8-bit WAV is unsigned with midpoint 128
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        samples = (raw - 128.0) / 128.0
    elif bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
    elif bits == 24:
        as_bytes = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        raw = (
            as_bytes[:, 0].astype(np.int32)
            | (as_bytes[:, 1].astype(np.int32) << 8)
            | (as_bytes[:, 2].astype(np.int32) << 16)
        )
        raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw)
        samples = raw.astype(np.float64) / float(1 << 23)
    else:  # 32-bit float
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        samples = np.clip(samples, -1.0, 1.0)

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)

    return Signal(samples=samples, sample_rate=int(sample_rate))
