import io
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chi2

from humsearch.peaks import PeakConfig, symmetric_neighbors
from humsearch.power import (
    REFERENCE_NOISE_VARIANCE,
    REFERENCE_SSNR,
    OnsetModel,
    PowerCurve,
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

    def test_from_ssnr_defaults(self):
        model = OnsetModel.from_ssnr()
        assert model.noise_sd == pytest.approx(
            math.sqrt(REFERENCE_NOISE_VARIANCE))
        assert (model.amplitude / model.noise_sd) ** 2 == pytest.approx(
            REFERENCE_SSNR, rel=1e-12)

    def test_mean_sequence_regimes(self):
        model = small_model(decay=0.0, frequency=0.0, amplitude=1.0)
        means = model.mean_sequence()
        assert np.all(means[:64] == 0.0)
        assert np.all(means[64:] == 1.0)


class TestSynthSignal:
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
        assert np.max(np.abs(sample_mean - model.mean_sequence())) < tol


class TestNoncentralityIntegral:
    def test_constant_integrand(self):
        model = small_model(decay=0.0, frequency=0.0, amplitude=3.0,
                            noise_sd=2.0)
        d = 100
        assert noncentrality_integral(model, d) == pytest.approx(
            9.0 * d / 4.0, rel=1e-9)

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
        for model in (small_model(), OnsetModel.from_ssnr(),
                      OnsetModel.from_ssnr(decay=5.0, frequency=100.0)):
            for d in (1, 10, 64, 500, 4096, 24_000, 48_000):
                assert noncentrality_integral(model, d) == pytest.approx(
                    quad_ncp(model, d), rel=1e-9)

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
        result = energy_power_lower_bound(
            model, cfg, 4096.0 * sigma2, -20_000, draws=5000)
        assert result.probability == 0.0

    def test_high_at_onset(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        cfg = PeakConfig(neighbors=symmetric_neighbors(8))
        result = energy_power_lower_bound(
            model, cfg, 5000.0 * sigma2, 0, draws=20_000)
        assert result.probability > 0.9
        assert result.stderr < 0.01

    def test_deterministic_given_seed(self):
        model = OnsetModel.from_ssnr()
        sigma2 = model.noise_sd ** 2
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        a = energy_power_lower_bound(model, cfg, 5000.0 * sigma2, 128,
                                     draws=2000, seed=3)
        b = energy_power_lower_bound(model, cfg, 5000.0 * sigma2, 128,
                                     draws=2000, seed=3)
        assert a == b


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

    def test_zero_trials_rejected(self):
        cfg = PeakConfig(neighbors=symmetric_neighbors(2))
        with pytest.raises(ValueError):
            monte_carlo_power(self._model(), "energy", cfg, trials=0, seed=0)


class TestPowerCurve:
    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            PowerCurve(offsets=np.array([0]), probabilities=np.array([1.5]),
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
