import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humsearch import spectral
from humsearch.audio import Signal
from humsearch.detect import (
    dominant_spectral_dissimilarity,
    energy_detector,
    spectral_dissimilarity,
)
from humsearch.peaks import PeakConfig, detect_peaks, symmetric_neighbors
from humsearch.power import OnsetModel, synth_signal
from humsearch.spectral import (
    Spectrogram,
    band_limit_bins,
    dft,
    frame_parts,
    frame_times,
    stft,
)

from conftest import frame_signal


def naive_dft(x):
    """Direct-summation unitary DFT, the oracle for the fast path."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return kernel @ x / np.sqrt(n)


def oracle_stft(signal, window_length, hop, cutoff_hz=1000.0):
    """The magnitudes of the full complex FFT of every frame, cut to the
    band afterwards: the transform that the band-only real FFT of ``stft``
    replaced."""
    frames = frame_signal(signal.samples, window_length, hop)
    k = band_limit_bins(window_length, signal.sample_rate, cutoff_hz)
    return Spectrogram(
        frames=np.abs(np.fft.fft(frames, axis=1)[:, :k]),
        window_length=window_length,
        hop=hop,
        frame_times=frame_times(len(frames), window_length, hop,
                                signal.sample_rate),
    )


def whole_rfft_stft(signal, window_length, hop, cutoff_hz=1000.0):
    """The real FFT of every frame in one call, band magnitudes taken
    afterwards: the transform that the blocked ``stft`` replaced."""
    frames = frame_signal(signal.samples, window_length, hop)
    k = band_limit_bins(window_length, signal.sample_rate, cutoff_hz)
    return np.abs(np.fft.rfft(frames, axis=1)[:, :k])


def hum_signal(seed, seconds=8.0, sample_rate=48000):
    """Seeded hum: harmonic notes at 80-200 Hz with decaying envelopes,
    0.35-1.2 s apart, in white noise about 20 dB below the notes."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    samples = np.zeros(n)
    t0 = rng.uniform(0.2, 0.6)
    while t0 < seconds - 0.5:
        start = int(t0 * sample_rate)
        t = np.arange(n - start) / sample_rate
        f0 = rng.uniform(80.0, 200.0)
        note = sum(np.cos(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi))
                   / h for h in (1, 2, 3, 4))
        samples[start:] += 0.3 * np.exp(-t / 0.35) * note
        t0 += rng.uniform(0.35, 1.2)
    samples += 0.03 * rng.normal(size=n)
    return Signal(samples=samples, sample_rate=sample_rate)


class TestDft:
    def test_impulse_spreads_uniformly(self):
        y = dft([1, 0, 0, 0])
        assert y == pytest.approx(np.full(4, 0.5))

    def test_pure_tone_concentrates(self):
        n, f = 64, 7
        y = dft(np.exp(2j * np.pi * f * np.arange(n) / n) / np.sqrt(n))
        expected = np.zeros(n)
        expected[f] = 1.0
        assert np.abs(y) == pytest.approx(expected, abs=1e-9)

    def test_parseval(self, rng):
        x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        y = dft(x)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(
            np.sum(np.abs(x) ** 2), rel=1e-9)

    def test_matches_naive_oracle(self, rng):
        for n in (1, 2, 5, 16, 33):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert dft(x) == pytest.approx(naive_dft(x), abs=1e-9)

    def test_linearity(self, rng):
        x = rng.normal(size=128)
        y = rng.normal(size=128)
        lhs = dft(2.5 * x - 1.5 * y)
        rhs = 2.5 * dft(x) - 1.5 * dft(y)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft([])


class TestStft:
    def test_zero_signal(self):
        sig = Signal(samples=np.zeros(10000), sample_rate=48000)
        spec = stft(sig, 1024, 256)
        assert np.all(spec.frames == 0)

    def test_exact_bin_cosine_magnitude(self):
        # closed-form DFT of a cosine: A*w/2 at bin k0 of the one-sided
        # spectrum, which a cutoff at Nyquist keeps whole
        sr, w, k0, amp = 48000, 1024, 12, 0.7
        t = np.arange(w)
        x = amp * np.cos(2 * np.pi * k0 * t / w)
        spec = stft(Signal(samples=x, sample_rate=sr), w, w, sr / 2)
        mags = np.abs(spec.frames[0])
        oracle = np.abs(np.array(
            [np.sum(x * np.exp(-2j * np.pi * k * t / w))
             for k in range(w // 2 + 1)]))
        assert mags == pytest.approx(oracle, abs=1e-6)
        assert mags[k0] == pytest.approx(amp * w / 2, rel=1e-9)
        others = np.delete(mags, k0)
        assert np.max(others) < 1e-6

    def test_unnormalized_parseval_per_frame(self, rng):
        # one-sided form: bins 1 .. w/2-1 stand for their mirror images too
        sig = Signal(samples=rng.normal(size=5000), sample_rate=48000)
        w, h = 512, 128
        spec = stft(sig, w, h, 24000)
        assert spec.frames.shape[1] == w // 2 + 1
        padded = np.zeros((spec.n_frames - 1) * h + w)
        padded[:5000] = sig.samples
        weights = np.full(w // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        for n in range(spec.n_frames):
            window = padded[n * h: n * h + w]
            energy = np.sum(weights * np.abs(spec.frames[n]) ** 2)
            assert energy == pytest.approx(w * np.sum(window ** 2),
                                           rel=1e-6, abs=1e-9)

    def test_default_band_is_one_khz(self, rng):
        sig = Signal(samples=rng.normal(size=20000), sample_rate=48000)
        spec = stft(sig, 4096, 2048)
        assert spec.frames.shape == (10, 86)
        assert spec.frames.shape[1] == band_limit_bins(4096, 48000, 1000.0)

    def test_cutoff_above_nyquist_rejected(self):
        sig = Signal(samples=np.ones(100), sample_rate=8000)
        with pytest.raises(ValueError, match="Nyquist"):
            stft(sig, 64, 32, 4001)

    def test_frame_count_and_times(self, rng):
        for length in (1, 100, 512, 513, 1024, 5000):
            sig = Signal(samples=np.ones(length), sample_rate=8000)
            spec = stft(sig, 512, 128)
            expected_frames = max(1, -(-length // 128))
            assert spec.n_frames == expected_frames
            expected_times = (np.arange(expected_frames) * 128 + 256) / 8000
            assert np.max(np.abs(spec.frame_times - expected_times)) < 1e-12

    def test_hop_longer_than_window(self):
        # frames start every hop samples; the samples between them are
        # skipped, and the signal may outrun the last frame
        sig = Signal(samples=np.arange(1.0, 1026.0), sample_rate=8000)
        head, tail = frame_parts(sig.samples, 1024, 1025)
        assert head.shape == (1, 1024) and tail.shape == (0, 1024)
        assert np.array_equal(head[0], sig.samples[:1024])
        assert stft(sig, 1024, 1025, 4000).n_frames == 1

    def test_non_power_of_two_window_rejected(self):
        sig = Signal(samples=np.ones(100), sample_rate=8000)
        with pytest.raises(ValueError):
            stft(sig, 1000, 100)
        with pytest.raises(ValueError):
            stft(sig, 1, 100)


WINDOW = 64
BLOCK = spectral._BLOCK_BYTES // (16 * (WINDOW // 2 + 1))
# hop below, at and above the window; lengths around one window, around
# a frame ending at the signal's end, and around one STFT block of frames
FRAMING_CASES = [
    (hop, length)
    for hop in (16, WINDOW, 100)
    for length in (1, WINDOW - 1, WINDOW, WINDOW + 1,
                   5 * hop + WINDOW - 1, 5 * hop + WINDOW + 1,
                   (BLOCK - 1) * hop, (BLOCK + 1) * hop)
]


class TestFrameParts:
    """``frame_parts`` against ``frame_signal``, the padded framing it
    replaced."""

    @pytest.mark.parametrize("hop, length", FRAMING_CASES)
    def test_parts_stack_to_the_padded_frames(self, hop, length, rng):
        samples = rng.normal(size=length)
        head, tail = frame_parts(samples, WINDOW, hop)
        want = frame_signal(samples, WINDOW, hop)
        assert np.array_equal(np.concatenate([head, tail]), want)
        # the head is every frame that ends inside the signal, read in place
        assert len(head) == sum(n * hop + WINDOW <= length
                                for n in range(len(want)))
        assert all(np.shares_memory(frame, samples) for frame in head)
        assert not head.flags.writeable
        assert not np.shares_memory(tail, samples)

    @staticmethod
    def assert_detectors_equal_the_padded_frames(signal, window, hop,
                                                 cutoff):
        frames = frame_signal(signal.samples, window, hop)
        assert np.array_equal(energy_detector(signal, window, hop).values,
                              np.einsum("ij,ij->i", frames, frames))
        assert np.array_equal(stft(signal, window, hop, cutoff).frames,
                              whole_rfft_stft(signal, window, hop, cutoff))

    @pytest.mark.parametrize("hop, length", FRAMING_CASES)
    def test_detectors_equal_the_padded_frames(self, hop, length, rng):
        signal = Signal(samples=rng.normal(size=length), sample_rate=48000)
        self.assert_detectors_equal_the_padded_frames(signal, WINDOW, hop,
                                                      24000.0)

    @pytest.mark.parametrize("hop", [512, 2048])
    def test_detector_geometry_on_a_hum(self, hop):
        self.assert_detectors_equal_the_padded_frames(
            hum_signal(0, seconds=3.0), 4096, hop, 1000.0)

    @pytest.mark.parametrize("window_length, hop", [(0, 1), (1, 0)])
    def test_nonpositive_window_or_hop_rejected(self, window_length, hop):
        with pytest.raises(ValueError,
                           match="window_length and hop must be >= 1"):
            frame_parts(np.ones(8), window_length, hop)


class TestBandLimitBins:
    def test_one_khz_default_geometry(self):
        assert band_limit_bins(4096, 48000, 1000) == 86

    def test_nyquist(self):
        assert band_limit_bins(4096, 48000, 24000) == 4096 // 2 + 1
        assert band_limit_bins(512, 8000, 4000) == 512 // 2 + 1

    def test_tiny_cutoff(self):
        assert band_limit_bins(4096, 48000, 11.72) == 2

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            band_limit_bins(4096, 48000, 24001)


class TestSpectrogram:
    def test_bins_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            Spectrogram(frames=np.zeros((2, 5)),
                        window_length=4, hop=2,
                        frame_times=np.array([0.25, 0.5]))

    @pytest.mark.parametrize("fields, message", [
        ({"hop": 0}, "hop must be >= 1"),
        ({"frame_times": np.array([0.25])}, "frame_times length"),
        ({"frames": np.zeros((2, 3), dtype=complex)}, "magnitudes"),
        ({"frames": np.array([[1.0, 0.0, 2.0], [0.0, -1e-300, 0.0]])},
         "magnitudes"),
    ])
    def test_rejected(self, fields, message):
        valid = dict(frames=np.zeros((2, 3)), window_length=4,
                     hop=2, frame_times=np.array([0.25, 0.5]))
        Spectrogram(**valid)
        with pytest.raises(ValueError, match=message):
            Spectrogram(**{**valid, **fields})

    def test_nonfinite_magnitudes_pass(self):
        # an overflowing signal reaches the detectors, whose callers word it
        frames = np.array([[np.inf, 0.0, 1.0], [np.nan, 2.0, 0.0]])
        spec = Spectrogram(frames=frames, window_length=4, hop=2,
                           frame_times=np.array([0.25, 0.5]))
        assert spec.frames is frames


@st.composite
def stft_cases(draw):
    """Signal, window, hop and cutoff, with at most 2**20 framed samples."""
    window = 2 ** draw(st.integers(1, 12))
    hop = draw(st.integers(1, 2 * window))
    max_frames = max(1, 2 ** 20 // window)
    length = draw(st.integers(1, max_frames * hop))
    sample_rate = draw(st.sampled_from([8000, 22050, 44100, 48000]))
    cutoff = sample_rate / 2 * draw(st.floats(1e-6, 1.0))
    scale = draw(st.sampled_from([1e-3, 1.0, 3e4]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    samples = scale * np.random.default_rng(seed).normal(size=length)
    signal = Signal(samples=samples, sample_rate=sample_rate)
    return signal, window, hop, cutoff


class TestBandOnlyStftAgainstOracle:
    """``stft`` (real FFT, band kept) against ``oracle_stft`` (complex FFT
    of the whole frame, band cut afterwards)."""

    @given(stft_cases())
    @settings(max_examples=60, deadline=None)
    def test_band_coefficients_match(self, case):
        signal, window, hop, cutoff = case
        got = stft(signal, window, hop, cutoff)
        want = oracle_stft(signal, window, hop, cutoff)
        assert got.frames.shape == want.frames.shape
        assert np.array_equal(got.frame_times, want.frame_times)
        # |X_k| <= w * max|x|, the scale of every coefficient of a frame
        frame_scale = window * np.max(np.abs(signal.samples))
        assert np.max(np.abs(got.frames - want.frames)) <= 1e-9 * frame_scale

    @pytest.mark.parametrize("seed", range(6))
    def test_hum_onsets_equal_oracle(self, seed):
        signal = hum_signal(seed)
        for detector, radius in ((spectral_dissimilarity, 4),
                                 (dominant_spectral_dissimilarity, 2)):
            cfg = PeakConfig(neighbors=symmetric_neighbors(radius))
            got = detector(stft(signal, 4096, 2048))
            want = detector(oracle_stft(signal, 4096, 2048))
            assert got.values == pytest.approx(want.values, rel=1e-9,
                                               abs=1e-12)
            onsets = detect_peaks(got, cfg).times
            assert len(onsets) > 0
            assert np.array_equal(onsets, detect_peaks(want, cfg).times)

    @pytest.mark.parametrize("seed", range(20))
    def test_power_model_onsets_equal_oracle(self, seed):
        signal = synth_signal(OnsetModel.from_ssnr(), seed)
        for detector, radius in ((spectral_dissimilarity, 4),
                                 (dominant_spectral_dissimilarity, 2)):
            cfg = PeakConfig(neighbors=symmetric_neighbors(radius))
            got = detect_peaks(detector(stft(signal, 4096, 2048)), cfg)
            want = detect_peaks(detector(oracle_stft(signal, 4096, 2048)),
                                cfg)
            assert np.array_equal(got.times, want.times)


class TestBlockedStftAgainstWholeTransform:
    """``stft`` transforms blocks of frames; each frame's coefficients are
    bit-equal to those of one ``rfft`` over all frames."""

    @staticmethod
    def block(window):
        return spectral._BLOCK_BYTES // (16 * (window // 2 + 1))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_frame_counts_around_one_block(self, extra, rng):
        window, hop = 4096, 2048
        n_frames = self.block(window) + extra
        signal = Signal(samples=rng.normal(size=n_frames * hop),
                        sample_rate=48000)
        got = stft(signal, window, hop)
        assert got.n_frames == n_frames
        assert np.array_equal(got.frames,
                              whole_rfft_stft(signal, window, hop))

    def test_hop_longer_than_window_over_several_blocks(self, rng):
        window, hop = 1024, 3000
        n_frames = 2 * self.block(window) + 7
        signal = Signal(samples=rng.normal(size=n_frames * hop - 5),
                        sample_rate=48000)
        got = stft(signal, window, hop, 4000.0)
        assert got.n_frames == n_frames
        assert np.array_equal(got.frames,
                              whole_rfft_stft(signal, window, hop, 4000.0))
