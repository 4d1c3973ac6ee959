import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch.audio import (
    EmptyAudioError,
    Signal,
    WavFormatError,
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
        # little-endian 3-byte words: most negative, most positive, +1 LSB,
        # -1 LSB and zero; stereo repeats each word in both channels
        words = [0x800000, 0x7FFFFF, 0x000001, 0xFFFFFF, 0]
        values = [-(1 << 23), (1 << 23) - 1, 1, -1, 0]
        payload = b"".join(w.to_bytes(3, "little") * channels
                           for w in words)
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
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_zero_length(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm_wav(path, np.zeros(0))
        with pytest.raises(EmptyAudioError):
            load_wav(path)


def riff(format_tag, channels, sample_rate, bits, payload, fmt_extra=b""):
    """A RIFF/WAVE document with one fmt chunk and one data chunk."""
    fmt = struct.pack("<HHIIHH", format_tag, channels, sample_rate, 0, 0,
                      bits) + fmt_extra
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"\0" * (len(fmt) % 2)
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


wav_documents = st.builds(
    riff,
    format_tag=st.sampled_from([1, 2, 3, 0xFFFE]),
    channels=st.integers(0, 3),
    sample_rate=st.integers(0, 2 ** 32 - 1),
    bits=st.sampled_from([0, 8, 12, 16, 24, 32, 64]),
    payload=st.binary(max_size=48),
    fmt_extra=st.binary(max_size=12),
)


class TestDecoderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        wav_documents,
        st.tuples(wav_documents, st.integers(0, 120)).map(
            lambda doc_cut: doc_cut[0][:doc_cut[1]]),
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
