import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch.audio import (
    _WAVE_FORMAT_EXTENSIBLE,
    _WAVE_FORMAT_IEEE_FLOAT,
    _WAVE_FORMAT_PCM,
    Signal,
    _decode_wav,
    load_wav,
)

from conftest import write_float_wav, write_pcm_wav


class TestSignal:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Signal(samples=np.zeros(4), sample_rate=0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Signal(samples=np.array([0.0, np.nan]), sample_rate=1)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Signal(samples=np.zeros((2, 2)), sample_rate=1)


class TestLoadWav:
    def test_full_scale_16bit(self, tmp_path):
        path = tmp_path / "one.wav"
        write_pcm_wav(path, [32767 / 32768], bits=16)
        sig = load_wav(path)
        assert sig.sample_rate == 48000
        assert sig.samples == pytest.approx([32767 / 32768])

    def test_stereo_mean_mixdown(self, tmp_path):
        path = tmp_path / "lr.wav"
        samples = np.array([[0.5, -0.5]])
        write_pcm_wav(path, samples, bits=16, channels=2)
        sig = load_wav(path)
        assert sig.samples == pytest.approx([0.0])

    def test_one_second_length(self, tmp_path):
        path = tmp_path / "sec.wav"
        write_pcm_wav(path, np.zeros(48000), sample_rate=48000)
        assert len(load_wav(path)) == 48000

    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_roundtrip_within_one_step(self, tmp_path, rng, bits):
        original = rng.uniform(-0.99, 0.99, 256)
        path = tmp_path / f"rt{bits}.wav"
        write_pcm_wav(path, original, bits=bits)
        loaded = load_wav(path)
        step = 2.0 ** (1 - bits)
        assert np.max(np.abs(loaded.samples - original)) <= step

    @pytest.mark.parametrize("channels", [1, 2])
    def test_24bit_extremes_bit_exact(self, channels):
        # stereo repeats each word in both channels
        values = [-(1 << 23), (1 << 23) - 1, 1, -1, 0]
        payload = b"".join(w.to_bytes(3, "little") * channels
                           for w in WORDS_24)
        signal = _decode_wav(riff(1, channels, 48000, 24, payload))
        expected = np.array(values, dtype=np.float64) / 2.0 ** 23
        assert np.array_equal(signal.samples, expected)

    def test_float32_clamped(self, tmp_path):
        path = tmp_path / "f32.wav"
        write_float_wav(path, np.array([0.25, 1.5, -2.0]))
        sig = load_wav(path)
        assert sig.samples == pytest.approx([0.25, 1.0, -1.0])

    def test_float32_infinities_clamped(self, tmp_path):
        path = tmp_path / "f32inf.wav"
        write_float_wav(path, np.array([np.inf, -np.inf, 0.5]))
        assert load_wav(path).samples.tolist() == [1.0, -1.0, 0.5]

    def test_float32_stereo(self, tmp_path):
        path = tmp_path / "f32s.wav"
        write_float_wav(path, np.array([[0.5, -0.25]]), channels=2)
        assert load_wav(path).samples == pytest.approx([0.125])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_wav(tmp_path / "absent.wav")

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(ValueError, match="not a RIFF/WAVE file"):
            load_wav(path)

    def test_zero_length(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm_wav(path, np.zeros(0))
        with pytest.raises(ValueError, match="zero-length audio"):
            load_wav(path)


def riff(format_tag, channels, sample_rate, bits, payload, fmt_extra=b""):
    """A RIFF/WAVE document with one fmt chunk and one data chunk."""
    fmt = struct.pack("<HHIIHH", format_tag, channels, sample_rate, 0, 0,
                      bits) + fmt_extra
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"\0" * (len(fmt) % 2)
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_documents(max_payload, **fields):
    """RIFF/WAVE documents with any header field values; ``fields``
    narrows the values drawn for some of them."""
    return st.builds(riff, **{
        "format_tag": st.sampled_from([1, 2, 3, 0xFFFE]),
        "channels": st.integers(0, 3),
        "sample_rate": st.integers(0, 2 ** 32 - 1),
        "bits": st.sampled_from([0, 8, 12, 16, 24, 32, 64]),
        "payload": st.binary(max_size=max_payload),
        "fmt_extra": st.binary(max_size=12),
        **fields})


def truncated(documents):
    return st.tuples(documents, st.integers(0, 120)).map(
        lambda doc_cut: doc_cut[0][:doc_cut[1]])


def decode_wav_oracle(data: bytes) -> Signal:
    """The decoder `_decode_wav` replaced: one branch per integer depth,
    the chunks read through a stream, the payload trimmed by a copy."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")

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
        raise ValueError("missing fmt chunk")
    if payload is None:
        raise ValueError("missing data chunk")

    (format_tag, channels, sample_rate, _byte_rate, _block_align,
     bits) = struct.unpack("<HHIIHH", fmt[:16])
    if format_tag == _WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 26:
        # sub-format GUID starts with the effective format tag
        format_tag = struct.unpack("<H", fmt[24:26])[0]

    if format_tag == _WAVE_FORMAT_PCM:
        if bits not in (8, 16, 24):
            raise ValueError(f"unsupported PCM bit depth: {bits}")
    elif format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise ValueError(f"unsupported float bit depth: {bits}")
    else:
        raise ValueError(
            f"non-PCM encoding (format tag 0x{format_tag:04x})")
    if channels not in (1, 2):
        raise ValueError(f"unsupported channel count: {channels}")

    bytes_per_sample = bits // 8
    frame_size = bytes_per_sample * channels
    n_frames = len(payload) // frame_size
    if n_frames == 0:
        raise ValueError("zero-length audio")
    payload = payload[: n_frames * frame_size]

    if bits == 8:
        # 8-bit WAV is unsigned with midpoint 128
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        samples = (raw - 128.0) / 128.0
    elif bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
    elif bits == 24:
        # each sample above a zero low byte is a little-endian int32 of
        # 256 times its value, so the sign comes with the view
        wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        samples = wide.view("<i4")[:, 0] / float(1 << 31)
    else:  # 32-bit float; a signalling NaN stays NaN, rejected by Signal
        with np.errstate(invalid="ignore"):
            samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        samples = np.clip(samples, -1.0, 1.0)

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)

    return Signal(samples=samples, sample_rate=int(sample_rate))


def decode_outcome(decode, data):
    """The decoded signal, or the type and message of what was raised."""
    try:
        return decode(data)
    except ValueError as exc:
        return type(exc), str(exc)


# 24-bit extremes (most negative, most positive, +1 LSB, -1 LSB, zero) as
# little-endian 3-byte words
WORDS_24 = [0x800000, 0x7FFFFF, 0x000001, 0xFFFFFF, 0]


class TestDecodeFromTheFileBytes:
    """Integer PCM is read as int32 words that end with each sample; the
    low bytes of the first word come from the chunk header before it."""

    @staticmethod
    def document(bits, channels, payload, declared_size):
        # a chunk ending in 0xFF bytes, then a data chunk whose size field
        # (the four bytes right before the first sample) may be all 0xFF:
        # such a chunk is cut short at the end of the file
        fmt = struct.pack("<HHIIHH", 1, channels, 48000, 0, 0, bits)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"junk" + struct.pack("<I", 4) + b"\xff" * 4
                + b"data" + struct.pack("<I", declared_size) + payload)
        return b"RIFF" + struct.pack("<I", len(body)) + body

    @pytest.mark.parametrize("declared", ["exact", 0xFFFFFFFF])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("bits", [8, 24])
    def test_bytes_before_a_sample_never_leak(self, bits, channels,
                                              declared):
        if bits == 8:  # unsigned, midpoint 128
            payload = bytes([0, 255, 127, 128, 1, 254])
            values = (np.frombuffer(payload, np.uint8) - 128.0) / 128.0
        else:
            words = WORDS_24 + [0x7FFFFE]
            payload = b"".join(w.to_bytes(3, "little") for w in words)
            values = np.array([w - (1 << 24) * (w >> 23) for w in words],
                              dtype=np.float64) / 2.0 ** 23
        size = len(payload) if declared == "exact" else declared
        data = self.document(bits, channels, payload, size)
        signal = _decode_wav(data)
        want = values if channels == 1 else values.reshape(-1, 2).mean(1)
        assert np.array_equal(signal.samples, want)
        assert np.array_equal(decode_wav_oracle(data).samples, want)


class TestIntegerPcmSkipsTheScan:
    """Integer PCM cannot hold NaN or infinity, so its Signal is built
    without the finiteness scan; float PCM keeps it."""

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("format_tag,bits", [(1, 8), (1, 16), (1, 24),
                                                 (3, 32)])
    def test_every_format_decodes_as_the_replaced_decoder(
            self, format_tag, bits, channels, rng):
        n = channels * 999
        payload = (rng.bytes(bits // 8 * n) if format_tag == 1 else
                   rng.uniform(-1.5, 1.5, n).astype("<f4").tobytes())
        data = riff(format_tag, channels, 44100, bits, payload)
        got, want = _decode_wav(data), decode_wav_oracle(data)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.sample_rate == want.sample_rate == 44100

    def test_integer_pcm_keeps_the_sample_rate_check(self):
        with pytest.raises(ValueError, match="^sample_rate must be positive$"):
            _decode_wav(riff(1, 1, 0, 16, bytes(4)))

    def test_float_nan_is_rejected(self):
        data = riff(3, 1, 48000, 32, struct.pack("<ff", 0.5, np.nan))
        with pytest.raises(ValueError, match="^samples must be finite$"):
            _decode_wav(data)


class TestDecoderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        wav_documents(48),
        truncated(wav_documents(48)),
    ))
    # a 32-bit float sample that is a signalling NaN
    @example(riff(3, 1, 48000, 32, struct.pack("<If", 0x7F800001, 0.5)))
    def test_decodes_or_raises_value_error(self, data):
        try:
            signal = _decode_wav(data)
        except ValueError:
            return
        assert len(signal) > 0
        assert np.all(np.abs(signal.samples) <= 1.0)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        wav_documents(300),
        # well-formed headers, so that most documents decode
        wav_documents(300, format_tag=st.sampled_from([1, 3]),
                      channels=st.sampled_from([1, 2]),
                      bits=st.sampled_from([8, 16, 24, 32]),
                      fmt_extra=st.just(b"")),
        truncated(wav_documents(300)),
    ))
    @example(riff(1, 1, 48000, 24,
                  b"".join(w.to_bytes(3, "little") for w in WORDS_24)))
    @example(riff(1, 2, 48000, 24, b"".join(
        w.to_bytes(3, "little") + v.to_bytes(3, "little")
        for w, v in zip(WORDS_24, WORDS_24[::-1]))))
    @example(riff(1, 1, 48000, 8, bytes([0, 127, 128, 255])))
    @example(riff(1, 2, 48000, 8, bytes([0, 255, 127, 128])))
    # an odd-sized fmt chunk, its pad byte, then data
    @example(riff(1, 1, 48000, 16, bytes(range(8)), fmt_extra=b"\x07"))
    # a data chunk cut mid-sample, by its size and by the end of the file
    @example(riff(1, 2, 48000, 24, bytes(range(1, 11))))
    @example(riff(1, 1, 48000, 16, bytes(range(1, 8)))[:-2])
    # an EXTENSIBLE fmt too short to hold the sub-format tag
    @example(riff(0xFFFE, 1, 48000, 16, bytes(4), fmt_extra=bytes(8)))
    def test_matches_the_replaced_decoder(self, data):
        got = decode_outcome(_decode_wav, data)
        want = decode_outcome(decode_wav_oracle, data)
        if isinstance(want, Signal):
            assert isinstance(got, Signal)
            assert got.samples.dtype == want.samples.dtype
            assert np.array_equal(got.samples, want.samples)
            assert got.sample_rate == want.sample_rate
        else:
            assert got == want
