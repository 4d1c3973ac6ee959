import numpy as np
import pytest

from humsearch.audio import (
    EmptyAudioError,
    Signal,
    WavFormatError,
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

    def test_duration(self):
        s = Signal(samples=np.zeros(48000), sample_rate=48000)
        assert s.duration == 1.0


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

    def test_float32_clamped(self, tmp_path):
        path = tmp_path / "f32.wav"
        write_float_wav(path, np.array([0.25, 1.5, -2.0]))
        sig = load_wav(path)
        assert sig.samples == pytest.approx([0.25, 1.0, -1.0])

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
