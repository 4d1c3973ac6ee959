import numpy as np
import pytest

from humsearch.audio import Signal
from humsearch.detect import (
    DetectionSeries,
    dominant_spectral_dissimilarity,
    energy_detector,
    run_detector,
    spectral_dissimilarity,
)
from humsearch.spectral import Spectrogram, band_limit_bins, stft


def make_spectrogram(mag_rows, w=4096, sr=48000, hop=2048):
    """Build a Spectrogram whose band magnitudes are prescribed.

    Each row of mag_rows fills the first len(row) bins of a frame; the
    frames hold as many bins as the longest row, the rest of them zero.
    """
    width = max(len(row) for row in mag_rows)
    frames = np.zeros((len(mag_rows), width))
    for n, row in enumerate(mag_rows):
        frames[n, : len(row)] = row
    times = (np.arange(len(mag_rows)) * hop + w / 2) / sr
    return Spectrogram(frames=frames, window_length=w, hop=hop,
                       frame_times=times)


class TestDetectionSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DetectionSeries(values=[1.0], times=[0.0, 1.0], hop=1,
                            window_length=2, detector_kind="energy")

    def test_negative_value(self):
        with pytest.raises(ValueError):
            DetectionSeries(values=[-1.0], times=[0.0], hop=1,
                            window_length=2, detector_kind="energy")

    def test_non_increasing_times(self):
        with pytest.raises(ValueError):
            DetectionSeries(values=[1.0, 1.0], times=[0.5, 0.5], hop=1,
                            window_length=2, detector_kind="energy")


class TestEnergyDetector:
    def test_zero_signal(self):
        sig = Signal(samples=np.zeros(5000), sample_rate=48000)
        assert np.all(energy_detector(sig, 4096, 512).values == 0)

    def test_tiny_example_with_tail_padding(self):
        sig = Signal(samples=np.array([1.0, 2.0]), sample_rate=10)
        series = energy_detector(sig, window_length=2, hop=1)
        assert series.values == pytest.approx([5.0, 4.0])

    def test_wgn_mean_matches_chi_squared(self, rng):
        # T over disjoint windows of unit-variance noise is chi^2 with
        # 4096 degrees of freedom, so the sample mean should sit near 4096.
        w, frames = 4096, 2000
        sig = Signal(samples=rng.normal(size=w * frames), sample_rate=48000)
        series = energy_detector(sig, window_length=w, hop=w)
        assert np.mean(series.values) == pytest.approx(w, rel=0.01)

    def test_quadratic_scaling(self, rng):
        x = rng.normal(size=3000)
        base = energy_detector(Signal(samples=x, sample_rate=48000),
                               window_length=1024, hop=256)
        scaled = energy_detector(Signal(samples=3.0 * x, sample_rate=48000),
                                 window_length=1024, hop=256)
        assert scaled.values == pytest.approx(9.0 * base.values, rel=1e-12)

    def test_length_is_ceil(self, rng):
        sig = Signal(samples=np.ones(48000), sample_rate=48000)
        assert len(energy_detector(sig, 4096, 512)) == 94

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            energy_detector(Signal(samples=np.zeros(0), sample_rate=1),
                            4096, 512)


class TestSpectralDissimilarity:
    def test_identical_frames(self):
        spec = make_spectrogram([[1.0, 2.0, 3.0]] * 4)
        assert np.all(spectral_dissimilarity(spec).values == 0)

    def test_silence_to_content(self):
        deltas = np.arange(86, dtype=float)
        spec = make_spectrogram([np.zeros(86), deltas])
        series = spectral_dissimilarity(spec)
        assert series.values[0] == 0.0
        assert series.values[1] == pytest.approx(deltas.sum())

    def test_decreasing_magnitudes_gated(self):
        spec = make_spectrogram([[5.0, 4.0], [3.0, 1.0]])
        assert spectral_dissimilarity(spec).values[1] == 0.0

    def test_band_limit_respected(self):
        # a whole-frame tone switching on above the cutoff contributes
        # nothing, because stft keeps no bin above it; the same tone in
        # the band rises by its full magnitude w/2
        sr, w = 48000, 4096
        t = np.arange(2 * w)
        for k0, rise in ((200, 0.0), (20, w / 2)):
            x = np.where(t >= w, np.cos(2 * np.pi * k0 * t / w), 0.0)
            spec = stft(Signal(samples=x, sample_rate=sr), w, w)
            assert spec.frames.shape[1] == band_limit_bins(w, sr, 1000.0)
            assert spectral_dissimilarity(spec).values[1] == pytest.approx(
                rise, abs=1e-6)

    def test_linear_scaling(self, rng):
        sig = Signal(samples=rng.normal(size=20000), sample_rate=48000)
        a = spectral_dissimilarity(stft(sig, 4096, 2048))
        scaled_sig = Signal(samples=4.0 * sig.samples, sample_rate=48000)
        b = spectral_dissimilarity(stft(scaled_sig, 4096, 2048))
        assert b.values == pytest.approx(4.0 * a.values, rel=1e-9)

    def test_single_frame_rejected(self):
        spec = make_spectrogram([[1.0]])
        with pytest.raises(ValueError):
            spectral_dissimilarity(spec)


class TestDominantSpectralDissimilarity:
    def test_decrease_gated(self):
        spec = make_spectrogram([[3.0], [2.0]])
        assert dominant_spectral_dissimilarity(spec).values[1] == 0.0

    def test_increase_squares(self):
        spec = make_spectrogram([[2.0], [3.0]])
        assert dominant_spectral_dissimilarity(spec).values[1] == pytest.approx(5.0)

    def test_steady_tone_is_flat(self):
        # constant-amplitude in-bin tone: every full frame has the same
        # magnitudes, so the dominant bin never rises
        sr, w = 48000, 4096
        t = np.arange(w * 8)
        x = np.cos(2 * np.pi * 10 * t / w)
        spec = stft(Signal(samples=x, sample_rate=sr), w, w)
        series = dominant_spectral_dissimilarity(spec)
        assert np.max(np.abs(series.values[1:-1])) < 1e-6

    def test_quadratic_scaling(self, rng):
        sig = Signal(samples=rng.normal(size=20000), sample_rate=48000)
        a = dominant_spectral_dissimilarity(stft(sig, 4096, 2048))
        scaled_sig = Signal(samples=2.0 * sig.samples, sample_rate=48000)
        b = dominant_spectral_dissimilarity(stft(scaled_sig, 4096, 2048))
        assert b.values == pytest.approx(4.0 * a.values, rel=1e-9)


class TestRunDetector:
    def test_dispatch_and_hop_defaults(self, rng):
        sig = Signal(samples=rng.normal(size=48000), sample_rate=48000)
        energy = run_detector(sig, "energy")
        assert energy.hop == 512 and energy.detector_kind == "energy"
        sd = run_detector(sig, "spectral_dissimilarity")
        assert sd.hop == 2048
        dsd = run_detector(sig, "dominant_spectral_dissimilarity")
        assert dsd.hop == 2048
        assert len(sd) == len(dsd) == 24

    def test_unknown_kind(self):
        sig = Signal(samples=np.ones(100), sample_rate=48000)
        with pytest.raises(ValueError):
            run_detector(sig, "zero_crossings")
