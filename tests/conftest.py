import struct
import wave

import numpy as np
import pytest


def write_pcm_wav(path, samples, sample_rate=48000, bits=16, channels=1):
    """Write integer PCM WAV from float samples in [-1, 1]."""
    samples = np.asarray(samples, dtype=np.float64)
    if channels == 2 and samples.ndim == 1:
        samples = np.stack([samples, samples], axis=1)
    flat = samples.reshape(-1)
    if bits == 8:
        raw = np.clip(np.round(flat * 128 + 128), 0, 255).astype(np.uint8)
        payload = raw.tobytes()
    elif bits == 16:
        raw = np.clip(np.round(flat * 32768), -32768, 32767).astype("<i2")
        payload = raw.tobytes()
    elif bits == 24:
        raw = np.clip(np.round(flat * (1 << 23)), -(1 << 23),
                      (1 << 23) - 1).astype(np.int64)
        raw = np.where(raw < 0, raw + (1 << 24), raw)
        b = np.empty((len(raw), 3), dtype=np.uint8)
        b[:, 0] = raw & 0xFF
        b[:, 1] = (raw >> 8) & 0xFF
        b[:, 2] = (raw >> 16) & 0xFF
        payload = b.tobytes()
    else:
        raise ValueError(bits)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(bits // 8)
        wav.setframerate(sample_rate)
        wav.writeframes(payload)
    return path


def write_float_wav(path, samples, sample_rate=48000, channels=1):
    """Write an IEEE float32 WAV (wave stdlib cannot, so hand-rolled)."""
    samples = np.asarray(samples, dtype="<f4")
    if channels == 2 and samples.ndim == 1:
        samples = np.stack([samples, samples], axis=1)
    payload = samples.reshape(-1).tobytes()
    byte_rate = sample_rate * channels * 4
    fmt = struct.pack("<HHIIHH", 3, channels, sample_rate, byte_rate,
                      channels * 4, 32)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def frame_signal(samples, window_length, hop):
    """The framing that ``spectral.frame_parts`` replaced, kept as its
    oracle: ``ceil(len/hop)`` frames of ``window_length`` samples starting
    at multiples of ``hop``, read from a zero-padded copy of the whole
    signal (with ``hop > window_length`` the samples between frames are
    skipped)."""
    n = max(1, -(-len(samples) // hop))
    padded_len = max((n - 1) * hop + window_length, len(samples))
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: len(samples)] = samples
    view = np.lib.stride_tricks.sliding_window_view(padded, window_length)
    return view[::hop][:n]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def wide_range_times(count=10000, seed=0):
    """Strictly increasing float64 times of both signs spanning 1e-20..1e20
    in magnitude, with the awkward values 0.1, 1/3, 5e-324, 1e308 and
    -0.0, for checks that serialisation keeps every value's shortest
    repr."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-20, 20, count)
    values = np.concatenate([rng.choice([-1.0, 1.0], count) * magnitudes,
                             [0.1, 1 / 3, 5e-324, 1e308, -0.0]])
    return np.unique(values)
