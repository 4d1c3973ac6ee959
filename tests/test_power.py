import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chi2, ncx2

from humsearch import power
from humsearch.detect import DETECTORS, run_detector
from humsearch.peaks import PeakConfig, detect_peaks, symmetric_neighbors
from humsearch.power import (
    REFERENCE_NOISE_VARIANCE,
    REFERENCE_SSNR,
    OnsetModel,
    PowerCurve,
    energy_power_curve,
    energy_power_lower_bound,
    energy_tail_probability,
    false_positive_upper_bound,
    monte_carlo_power,
    noncentrality_integral,
    synth_signal,
    write_power_csv,
)


def small_model(**overrides):
    params = dict(amplitude=2.0, decay=10.0, frequency=100.0, noise_sd=1.0,
                  sample_rate=8000, onset_index=64, length=256)
    params.update(overrides)
    return OnsetModel(**params)


def closed_form_ncp(model, d):
    """Antiderivative of A^2 e^{-2 lam u} cos^2(2 pi f0 u), evaluated on
    [0, d/S_f] in numpy from its textbook terms."""
    t = d / model.sample_rate
    a = 2.0 * model.decay
    b = 4.0 * np.pi * model.frequency
    if a == 0.0:
        part1 = t / 2.0
        part2 = t / 2.0 if b == 0.0 else np.sin(b * t) / (2.0 * b)
    else:
        part1 = (1.0 - np.exp(-a * t)) / (2.0 * a)
        part2 = (a + np.exp(-a * t) * (b * np.sin(b * t) - a * np.cos(b * t))
                 ) / (2.0 * (a * a + b * b))
    return (model.sample_rate / model.noise_sd ** 2
            * model.amplitude ** 2 * (part1 + part2))


def mean_oracle(model):
    """The model mean, built afresh on every call as before it was
    cached."""
    means = np.zeros(model.length)
    t = (np.arange(model.onset_index, model.length)
         - model.onset_index) / model.sample_rate
    means[model.onset_index:] = (
        model.amplitude * np.exp(-model.decay * t)
        * np.cos(2 * np.pi * model.frequency * t))
    return means


def synth_oracle(model, seed):
    """The draw that the scaled standard-normal fill replaced."""
    rng = np.random.default_rng(seed)
    return mean_oracle(model) + rng.normal(0.0, model.noise_sd, model.length)


def quad_ncp(model, d):
    """The same integral by adaptive quadrature, an oracle that shares no
    formula with the library.  Only usable where quad converges: with
    decay, over offsets of up to about a second."""
    def integrand(u):
        return (model.amplitude ** 2 * math.exp(-2.0 * model.decay * u)
                * math.cos(2.0 * math.pi * model.frequency * u) ** 2)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, _err = quad(integrand, 0.0, d / model.sample_rate,
                           epsabs=0.0, epsrel=1e-10, limit=2000)
    return model.sample_rate / model.noise_sd ** 2 * value


class TestOnsetModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_model(amplitude=0.0)
        with pytest.raises(ValueError):
            small_model(decay=-1.0)
        with pytest.raises(ValueError):
            small_model(onset_index=256)
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            small_model(sample_rate=0)

    @pytest.mark.parametrize("name, value", [
        ("amplitude", math.nan), ("noise_sd", math.nan), ("decay", math.nan),
        ("frequency", math.nan), ("frequency", math.inf),
        ("amplitude", math.inf), ("noise_sd", math.inf), ("decay", math.inf),
        # finite, but the mean's phase 2 pi f t overflows
        ("frequency", 1e308), ("frequency", -1e308),
    ])
    def test_nan_or_infinite_frequency_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_model(**{name: value})

    @pytest.mark.parametrize("name", ["ssnr", "noise_variance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_from_ssnr_rejects_nonpositive_or_nan(self, name, value):
        with pytest.raises(ValueError, match=name):
            OnsetModel.from_ssnr(**{name: value})

    def test_from_ssnr_defaults(self):
        model = OnsetModel.from_ssnr()
        assert model.noise_sd == pytest.approx(
            math.sqrt(REFERENCE_NOISE_VARIANCE))
        assert (model.amplitude / model.noise_sd) ** 2 == pytest.approx(
            REFERENCE_SSNR, rel=1e-12)

    def test_mean_sequence_regimes(self):
        model = small_model(decay=0.0, frequency=0.0, amplitude=1.0)
        means = model.mean_sequence
        assert np.all(means[:64] == 0.0)
        assert np.all(means[64:] == 1.0)

    def test_mean_sequence_is_built_once_and_read_only(self):
        model = small_model()
        means = model.mean_sequence
        assert model.mean_sequence is means
        assert not means.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            means[0] = 1.0
        assert np.array_equal(means, mean_oracle(model))

    def test_equality_and_hash_see_only_the_parameters(self):
        names = ["amplitude", "decay", "frequency", "noise_sd",
                 "sample_rate", "onset_index", "length"]
        a, b = small_model(), small_model()
        a.mean_sequence
        assert [f.name for f in dataclasses.fields(a)] == names
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, name) for name in names))
        assert dataclasses.replace(a) == a
        c = dataclasses.replace(a, decay=0.0)
        assert c != a and c == small_model(decay=0.0)
        assert np.array_equal(c.mean_sequence, mean_oracle(c))


class TestSynthSignal:
    @pytest.mark.parametrize("model", [
        *(OnsetModel.from_ssnr(ssnr) for ssnr in (0.05, 1.0, 5000.0, 1e12)),
        OnsetModel.from_ssnr(decay=0.0), OnsetModel.from_ssnr(frequency=0.0),
    ])
    def test_equals_the_replaced_draw(self, model):
        seeds = [*range(50), *np.random.SeedSequence(3).spawn(10)]
        for seed in seeds:
            assert np.array_equal(synth_signal(model, seed).samples,
                                  synth_oracle(model, seed))

    def test_determinism(self):
        model = small_model()
        a = synth_signal(model, 7)
        b = synth_signal(model, 7)
        assert np.array_equal(a.samples, b.samples)
        c = synth_signal(model, 8)
        assert not np.array_equal(a.samples, c.samples)

    def test_degenerate_noise_tracks_mean(self):
        model = small_model(decay=0.0, frequency=0.0, amplitude=1.0,
                            noise_sd=1e-9)
        sig = synth_signal(model, 0)
        assert np.max(np.abs(sig.samples[:64])) < 1e-6
        assert sig.samples[64:] == pytest.approx(np.ones(192), abs=1e-6)

    def test_replication_mean_matches_model(self):
        model = small_model(length=128, onset_index=32)
        reps = 10_000
        acc = np.zeros(model.length)
        for s in range(reps):
            acc += synth_signal(model, s).samples
        sample_mean = acc / reps
        tol = 4.0 * model.noise_sd / math.sqrt(reps)
        assert np.max(np.abs(sample_mean - model.mean_sequence)) < tol


class TestNoncentralityIntegral:
    def test_constant_integrand(self):
        model = small_model(decay=0.0, frequency=0.0, amplitude=3.0,
                            noise_sd=2.0)
        d = 100
        assert noncentrality_integral(model, d) == pytest.approx(
            9.0 * d / 4.0, rel=1e-9)

    def test_negligible_decay_and_frequency(self):
        # the squared mean is A^2 to double precision: a^2 + b^2 underflows,
        # or e^{-at} rounds to 1 and the decay term must not cancel
        for decay, frequency in ((1e-320, 1e-320), (1e-100, 0.0),
                                 (1e-100, 1e-100)):
            model = small_model(decay=decay, frequency=frequency,
                                amplitude=3.0, noise_sd=2.0)
            assert noncentrality_integral(model, 100) == pytest.approx(
                9.0 * 100 / 4.0, rel=1e-12)

    def test_zero_offset(self):
        assert noncentrality_integral(small_model(), 0) == 0.0

    def test_matches_closed_form(self):
        # decay 0 is a steady tone: no envelope bounds the integral
        for decay in (0.0, 10.0):
            model = small_model(decay=decay)
            for d in (1, 10, 64, 500, 5000, 10 ** 6, 10 ** 7):
                assert noncentrality_integral(model, d) == pytest.approx(
                    closed_form_ncp(model, d), rel=1e-12)

    def test_matches_quadrature(self):
        cases = [(model, 1e-9) for model in (
            small_model(), OnsetModel.from_ssnr(),
            OnsetModel.from_ssnr(decay=5.0, frequency=100.0))]
        # slow decay: e^{-at} rounds to 1 and a - a e^{-at} cos bt cancels
        cases += [(small_model(decay=decay, frequency=frequency,
                               amplitude=3.0, noise_sd=2.0), 1e-12)
                  for decay in (1e-100, 1e-10) for frequency in (0.0, 1e-100)]
        for model, rel in cases:
            for d in (1, 10, 64, 500, 4096, 24_000, 48_000):
                assert noncentrality_integral(model, d) == pytest.approx(
                    quad_ncp(model, d), rel=rel)

    def test_large_offset_converges(self):
        model = small_model()
        a = 2.0 * model.decay
        b = 4.0 * np.pi * model.frequency
        limit = (model.sample_rate / model.noise_sd ** 2
                 * model.amplitude ** 2
                 * (1.0 / (2.0 * a) + a / (2.0 * (a * a + b * b))))
        assert noncentrality_integral(model, 10 ** 7) == pytest.approx(
            limit, rel=1e-6)

    def test_monotone_in_offset(self):
        model = small_model()
        values = [noncentrality_integral(model, d) for d in range(0, 400, 25)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            noncentrality_integral(small_model(), -1)


class TestEnergyTailProbability:
    def test_pure_noise_window_is_central(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        p = energy_tail_probability(model, 4000.0 * sigma2, -10_000)
        assert p == pytest.approx(chi2.sf(4000.0, 4096), rel=1e-12)

    def test_signal_window_near_certain(self):
        # with SSNR 5000 the accumulated signal dwarfs the threshold
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        assert energy_tail_probability(model, 5000.0 * sigma2, 0) > 0.999

    @pytest.mark.parametrize("offset, ncp", [(-4095, 5000.0),
                                             (0, 20_480_000.0)])
    def test_noncentrality_spans_the_whole_window(self, offset, ncp):
        # a constant mean makes the noncentrality a count of signal samples;
        # the threshold sits at the statistic's mean, where the tail
        # probability is far from 0 and 1
        model = OnsetModel.from_ssnr(decay=0.0, frequency=0.0)
        sigma2 = model.noise_sd ** 2
        start = model.onset_index + offset
        exact = np.sum(model.mean_sequence[start:start + 4096] ** 2) / sigma2
        assert exact == pytest.approx(ncp, rel=1e-12)
        threshold = (4096 + exact) * sigma2
        assert energy_tail_probability(model, threshold, offset) == (
            pytest.approx(ncx2.sf(4096 + exact, 4096, exact), rel=1e-9))

    def test_window_beyond_int64_is_named(self):
        # the largest int64 window still reaches ncx2; one more is named
        model = OnsetModel.from_ssnr()
        threshold = REFERENCE_SSNR * model.noise_sd ** 2
        assert energy_tail_probability(model, threshold, 0.0,
                                       2 ** 63 - 1) == 1.0
        with pytest.raises(ValueError, match="window_length is out of range"):
            energy_tail_probability(model, threshold, 0.0, 2 ** 63)

    @pytest.mark.parametrize("window_length", [64, 2048, 4096])
    def test_minus_infinity_offset_is_noise_alone(self, window_length):
        # the window that `power bound` takes as noise-only; the threshold
        # sits at the central statistic's mean, away from 0 and 1
        model = OnsetModel.from_ssnr()
        threshold = window_length * model.noise_sd ** 2
        p = energy_tail_probability(model, threshold, -math.inf,
                                    window_length)
        assert p == energy_tail_probability(model, threshold,
                                            -10 * window_length,
                                            window_length)
        assert p == pytest.approx(chi2.sf(window_length, window_length),
                                  rel=1e-12)

    def test_monotone_decreasing_in_threshold(self):
        # weak-signal configuration keeps the tails away from 0 and 1
        model = small_model()
        p_lo = energy_tail_probability(model, 120.0, 0, window_length=64)
        p_mid = energy_tail_probability(model, 180.0, 0, window_length=64)
        p_hi = energy_tail_probability(model, 250.0, 0, window_length=64)
        assert 1.0 > p_lo > p_mid > p_hi > 0.0


class TestFalsePositiveUpperBound:
    def test_endpoints(self):
        assert false_positive_upper_bound(0.0) == 0.0
        assert false_positive_upper_bound(1.0) == 0.5

    def test_monotone_and_capped(self):
        grid = np.linspace(0, 1, 101)
        values = [false_positive_upper_bound(p) for p in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert max(values) <= 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            false_positive_upper_bound(1.5)


class TestEnergyPowerLowerBound:
    def test_pure_noise_clamps_to_zero(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        cfg = PeakConfig(neighbors=symmetric_neighbors(8))
        probability, _ = energy_power_lower_bound(
            model, cfg, 4096.0 * sigma2, -20_000, draws=5000)
        assert probability == 0.0

    def test_high_at_onset(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        cfg = PeakConfig(neighbors=symmetric_neighbors(8))
        probability, stderr = energy_power_lower_bound(
            model, cfg, 5000.0 * sigma2, 0, draws=20_000)
        assert probability > 0.9
        assert stderr < 0.01

    def test_deterministic_given_seed(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        a = energy_power_lower_bound(model, cfg, 5000.0 * sigma2, 128,
                                     draws=2000, seed=3)
        b = energy_power_lower_bound(model, cfg, 5000.0 * sigma2, 128,
                                     draws=2000, seed=3)
        assert a == b


    @pytest.mark.parametrize("name, value", [
        ("window_length", 0), ("window_length", -4096), ("hop", 0),
        ("hop", -512), ("draws", 0)])
    def test_nonpositive_frame_or_draws_rejected(self, name, value):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            energy_power_lower_bound(OnsetModel.from_ssnr(), cfg, 1.0, 0,
                                     **{name: value})


def neighbor_range_oracle(offset, gap, window_length):
    """The three-branch range that ``power._neighbor_range`` replaced."""
    d, w = offset, window_length
    if abs(gap) >= w:
        return d, d + w, w
    if gap > 0:
        return d, d + gap, gap
    return d + w + gap, d + w, -gap


class TestNeighborRange:
    # every window up to 256, then odd and even ones up to 4096
    WINDOWS = [*range(1, 257), 383, 511, 512, 513, 1000, 1023, 1024, 1025,
               2047, 2048, 2049, 3001, 4095, 4096]

    @pytest.mark.parametrize("offset", [-5000, -1, 0, 1, 3000])
    def test_equals_the_three_branch_oracle(self, offset):
        for w in self.WINDOWS:
            for gap in (*range(-3 * w, 0), *range(1, 3 * w + 1)):
                assert (power._neighbor_range(offset, gap, w)
                        == neighbor_range_oracle(offset, gap, w)), (gap, w)


class TestEnergyPowerCurve:
    @pytest.mark.parametrize("offsets", [
        [-2048, -128, 0, 128, 640, 4096], []], ids=["grid", "empty"])
    def test_equals_a_loop_over_the_bound(self, offsets):
        model = OnsetModel.from_ssnr()
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        threshold = 5000.0 * model.noise_sd ** 2
        curve = energy_power_curve(model, cfg, threshold, offsets, seed=7,
                                   draws=500, hop=256)
        pairs = [energy_power_lower_bound(model, cfg, threshold, d,
                                          seed=7 + i, draws=500, hop=256)
                 for i, d in enumerate(offsets)]
        assert curve.offsets.tolist() == offsets
        assert curve.probabilities.tolist() == [p for p, _ in pairs]
        assert curve.stderrs.tolist() == [err for _, err in pairs]


class TestMonteCarloPower:
    def _model(self):
        return OnsetModel.from_ssnr(onset_index=8192, length=16384)

    def test_impossible_threshold_silences(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2),
                         threshold_scale=1e9)
        curve = monte_carlo_power(self._model(), "energy", cfg, trials=3,
                                  seed=1)
        assert np.all(curve.probabilities == 0.0)

    def test_deterministic_given_seed(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        a = monte_carlo_power(self._model(),
                              "dominant_spectral_dissimilarity", cfg,
                              trials=5, seed=42)
        b = monte_carlo_power(self._model(),
                              "dominant_spectral_dissimilarity", cfg,
                              trials=5, seed=42)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.offsets, b.offsets)

    def test_binomial_stderrs(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        curve = monte_carlo_power(self._model(), "energy", cfg, trials=7,
                                  seed=3)
        assert 0 < curve.probabilities.max()
        assert [float(e) for e in curve.stderrs] == [
            math.sqrt(p * (1.0 - p) / 7) for p in curve.probabilities]

    def test_mass_concentrates_near_onset(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(4))
        curve = monte_carlo_power(self._model(), "spectral_dissimilarity",
                                  cfg, trials=50, seed=9)
        near = np.abs(curve.offsets) <= 2400  # 0.05 s at 48 kHz
        assert curve.probabilities[near].sum() >= 0.85
        assert curve.probabilities[~near].sum() <= 0.15

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_counts_equal_a_recount(self, kind):
        # the same spawned seeds, each trial's picks credited to the frames
        # whose times they are; a faint onset, so that noise peaks spread
        # the picks over many frames
        model = OnsetModel.from_ssnr(ssnr=0.05, onset_index=8192,
                                     length=16384)
        cfg = PeakConfig(neighbors=symmetric_neighbors(1), min_gap=0.02)
        trials = 6
        curve = monte_carlo_power(model, kind, cfg, trials=trials, seed=11)
        counts = 0
        for child in np.random.SeedSequence(11).spawn(trials):
            series = run_detector(synth_signal(model, child), kind)
            counts = counts + np.isin(series.times,
                                      detect_peaks(series, cfg).times)
        assert counts.sum() > trials  # some trials emit more than once
        assert np.array_equal(curve.probabilities * trials, counts)

    def test_zero_trials_rejected(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        with pytest.raises(ValueError):
            monte_carlo_power(self._model(), "energy", cfg, trials=0, seed=0)

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_model_that_overflows_the_detector_rejected(self, kind):
        # finite samples near 1e308 overflow a frame's energy, its
        # transform or the squared dominant magnitude; pytest turns any
        # leaked warning into an error
        model = OnsetModel.from_ssnr(ssnr=1e308, noise_variance=1e308,
                                     onset_index=8192, length=16384)
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        with pytest.raises(ValueError, match="overflows the detector"):
            monte_carlo_power(model, kind, cfg, trials=1, seed=0)


class TestPowerCurve:
    def test_probability_range_enforced(self):
        for probability in (1.5, -0.25, math.nan):
            with pytest.raises(ValueError, match="lie in"):
                PowerCurve(offsets=np.array([0]),
                           probabilities=np.array([probability]),
                           stderrs=np.array([0.0]))

    def test_arrays_must_align(self):
        with pytest.raises(ValueError, match="align"):
            PowerCurve(offsets=np.array([0, 1]),
                       probabilities=np.array([0.5, 0.5]),
                       stderrs=np.array([0.1]))

    def test_csv_format(self):
        curve = PowerCurve(offsets=np.array([-512, 0]),
                           probabilities=np.array([0.25, 1.0]),
                           stderrs=np.array([math.sqrt(0.25 * 0.75 / 100),
                                             0.0]))
        buf = io.StringIO()
        write_power_csv(curve, buf)
        assert buf.getvalue().splitlines() == [
            "offset_samples,probability,stderr",
            "-512,0.25,4.330e-02",
            "0,1.0,0.000e+00",
        ]
