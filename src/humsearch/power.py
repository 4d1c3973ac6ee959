"""Detection-power analysis for the onset detectors.

The signal model is white Gaussian noise that switches, at a single onset
sample k*, to a decaying sinusoid mean plus the same noise.  For the
energy detector the window statistic over sigma^2 is (non)central
chi-squared, with a noncentrality in closed form (the antiderivative of
the squared mean).  That yields an analytic lower bound on the probability
that an offset is emitted as an onset (Boole-Frechet over the threshold
event and the neighbor comparisons) and a closed-form cap on the
false-positive probability.  The spectral detectors have no tractable
closed form, so their power curves are estimated by Monte Carlo over the
full detector-plus-peak-picking pipeline.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import Signal
from .detect import DETECTORS, WINDOW_LENGTH, DetectorKind, run_detector
from .peaks import PeakConfig, detect_peaks

__all__ = [
    "OnsetModel",
    "PowerCurve",
    "synth_signal",
    "noncentrality_integral",
    "energy_tail_probability",
    "energy_power_lower_bound",
    "energy_power_curve",
    "false_positive_upper_bound",
    "monte_carlo_power",
    "write_power_csv",
    "REFERENCE_SSNR",
    "REFERENCE_NOISE_VARIANCE",
]

# Reproduction defaults: squared signal-to-noise ratio (A/sigma)^2 and the
# blank-recording noise variance estimate they are anchored to.
REFERENCE_SSNR = 5000.0
REFERENCE_NOISE_VARIANCE = 10165.98


@dataclass(frozen=True)
class OnsetModel:
    """Noise-then-decaying-sinusoid signal model with a single onset.

    Samples before ``onset_index`` are N(0, noise_sd^2); from the onset on,
    the mean is ``amplitude * exp(-decay * t) * cos(2 pi frequency * t)``
    with t measured in seconds since the onset.
    """

    amplitude: float
    decay: float
    frequency: float
    noise_sd: float
    sample_rate: int
    onset_index: int
    length: int

    def __post_init__(self):
        if not 0 < self.amplitude < math.inf:  # NaN too
            raise ValueError("amplitude must be positive and finite")
        if not 0 <= self.decay < math.inf:
            raise ValueError("decay must be non-negative and finite")
        if not 0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be positive and finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 <= self.onset_index < self.length:
            raise ValueError("onset_index must lie inside the signal")
        # the mean's phase 2 pi f t at the last sample, or 2 pi f (1 / S_f)
        last = max(self.length - 1 - self.onset_index, 1) / self.sample_rate
        if not math.isfinite(2 * math.pi * self.frequency * last):  # NaN too
            raise ValueError("frequency must keep the phase 2 pi f t finite")

    @classmethod
    def from_ssnr(cls, ssnr: float = REFERENCE_SSNR,
                  noise_variance: float = REFERENCE_NOISE_VARIANCE,
                  decay: float = 50.0, frequency: float = 440.0,
                  sample_rate: int = 48000, onset_index: int = 24576,
                  length: int = 48000) -> "OnsetModel":
        """Build a model from a squared SNR (A/sigma)^2 and noise variance."""
        for name, value in (("ssnr", ssnr),
                            ("noise_variance", noise_variance)):
            if not 0 < value < math.inf:  # NaN too
                raise ValueError(f"{name} must be positive and finite")
        sigma = math.sqrt(noise_variance)
        return cls(
            amplitude=math.sqrt(ssnr) * sigma,
            decay=decay,
            frequency=frequency,
            noise_sd=sigma,
            sample_rate=sample_rate,
            onset_index=onset_index,
            length=length,
        )

    @functools.cached_property
    def mean_sequence(self) -> np.ndarray:
        """Deterministic mean of each sample: one read-only array per
        model, built on first access."""
        # kept in the instance __dict__, so equality, hashing and
        # dataclasses.replace see only the fields
        means = np.zeros(self.length)
        t = (np.arange(self.onset_index, self.length)
             - self.onset_index) / self.sample_rate
        means[self.onset_index:] = (
            self.amplitude * np.exp(-self.decay * t)
            * np.cos(2 * np.pi * self.frequency * t))
        means.flags.writeable = False
        return means


@dataclass(frozen=True)
class PowerCurve:
    """Per-offset probability that an onset is emitted at that offset,
    with the standard error of each estimate.

    An offset is in samples from the onset, measured at the window's
    start by the energy bound and at the frame's centre by
    :func:`monte_carlo_power`, so the two curves sit half a window apart.
    """

    offsets: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    stderrs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN too
            raise ValueError("probabilities must lie in [0, 1]")
        if not len(probs) == len(self.offsets) == len(self.stderrs):
            raise ValueError("offsets, probabilities and stderrs must align")


def synth_signal(model: OnsetModel, seed: int) -> Signal:
    """Draw one realization of the model; deterministic given the seed.

    Standard normals are scaled by ``noise_sd`` in place and the model's
    cached mean is added: bit for bit ``mean + rng.normal(0.0, noise_sd,
    length)``, since ``Generator.normal`` returns ``loc + scale * z`` from
    the same stream and ``0.0 + x == x``.
    """
    samples = np.random.default_rng(seed).standard_normal(model.length)
    samples *= model.noise_sd
    samples += model.mean_sequence
    return Signal(samples=samples, sample_rate=model.sample_rate)


def noncentrality_integral(model: OnsetModel, offset_samples: float) -> float:
    """Noncentrality accumulated over the first ``offset_samples`` samples
    after the onset:

    ``(S_f / sigma^2) * integral_0^t A^2 exp(-2 lam u) cos^2(2 pi f0 u) du``

    with ``t = offset_samples / S_f``, evaluated through its antiderivative.
    With ``a = 2 lam`` and ``b = 4 pi f0`` the integral is

    ``A^2 [(1 - e^{-at}) / 2a
    + (a (1 - e^{-at}) + 2a e^{-at} sin^2(bt/2) + b e^{-at} sin bt)
    / 2(a^2 + b^2)]``,

    whose second numerator is ``a + e^{-at} (b sin bt - a cos bt)``
    written so that it does not cancel while ``e^{-at}`` rounds to 1;
    ``A^2 (t/2 + sin(bt) / 2b)`` without decay (``A^2 t`` if also
    ``b = 0``).  Monotone non-decreasing in the offset.
    """
    if offset_samples < 0:
        raise ValueError("offset_samples must be non-negative")
    t = offset_samples / model.sample_rate
    a = 2.0 * model.decay
    b = 4.0 * math.pi * model.frequency
    snr_rate = model.sample_rate / model.noise_sd ** 2
    # checked before they raise: sin(inf), and A ** 2 exactly when A * A = inf
    for name, term in (("decay", a), ("frequency", b * t),
                       ("amplitude", model.amplitude * model.amplitude),
                       ("noise_sd", snr_rate)):
        if not math.isfinite(term):
            raise ValueError(f"{name} is out of range for the energy bound")
    if a * a + b * b == 0:  # a, b zero or below 1e-162: a constant mean
        value = t
    elif a > 0:
        lost, kept = -math.expm1(-a * t), math.exp(-a * t)
        value = (lost / (2.0 * a)
                 + (a * lost + 2.0 * (a * kept) * math.sin(b * t / 2.0) ** 2
                    + b * kept * math.sin(b * t))
                 / (2.0 * (a * a + b * b)))
    else:
        value = t / 2.0 + math.sin(b * t) / (2.0 * b)
    ncp = snr_rate * model.amplitude ** 2 * value
    if not math.isfinite(ncp):  # terms that overflow only together
        raise ValueError("decay, frequency, amplitude or noise_sd is out of "
                         "range for the energy bound")
    return ncp


def _range_ncp(model: OnsetModel, lo: float, hi: float) -> float:
    """Noncentrality of the squared-sample sum over sample offsets
    [lo, hi) relative to the onset."""
    return max(noncentrality_integral(model, max(hi, 0.0))
               - noncentrality_integral(model, max(lo, 0.0)), 0.0)


def energy_tail_probability(model: OnsetModel, threshold: float,
                            offset: float,
                            window_length: int = WINDOW_LENGTH) -> float:
    """P(T > threshold) for the energy statistic of the window starting
    ``offset`` samples after the onset.

    T / sigma^2 is chi-squared with ``window_length`` degrees of freedom
    and the noncentrality its samples [offset, offset + window_length)
    accumulate: central for a window of noise alone, which is what an
    ``offset`` of ``-math.inf`` gives whatever the window length.
    """
    # Local: only `power bound` needs scipy, and importing it at module
    # level cost every other command about 0.9 s.
    from scipy.stats import ncx2
    if window_length >= 2 ** 63:  # degrees of freedom that ncx2 cannot take
        raise ValueError("window_length is out of range for the energy bound")
    ncp = _range_ncp(model, offset, offset + window_length)
    tail = float(ncx2.sf(threshold / model.noise_sd ** 2, window_length, ncp))
    if math.isnan(tail):  # ncx2.sf past a noncentrality of about 1e19
        raise ValueError("decay, frequency, amplitude or noise_sd is out of "
                         "range for the energy bound")
    return tail


def false_positive_upper_bound(p_alpha: float) -> float:
    """Cap on the probability that a pure-noise window is emitted as an
    onset: ``p_alpha * (2 - p_alpha) / 2``, where ``p_alpha`` is the
    threshold-exceedance probability of the noise-only statistic."""
    if not 0.0 <= p_alpha <= 1.0:
        raise ValueError("p_alpha must lie in [0, 1]")
    return 0.5 * p_alpha * (2.0 - p_alpha)


def _neighbor_range(offset: int, gap: int, window_length: int):
    """Exclusive sample range of the emitted window in one neighbor
    comparison.

    T[k] > T[k + gap] reduces, after cancelling the shared samples, to a
    comparison of two disjoint sums of squares of df = min(|gap|, w)
    samples each: against a later neighbor (gap > 0) the emitted window
    keeps its first df samples, against an earlier one its last df.
    Returns (lo, hi, df), the onset-relative range [lo, hi) of the sum
    belonging to the window at ``offset`` and its sample count.
    """
    df = min(abs(gap), window_length)
    lo = offset if gap > 0 else offset + window_length - df
    return lo, lo + df, df


def energy_power_lower_bound(model: OnsetModel, peak_config: PeakConfig,
                             threshold: float, offset: int, *,
                             window_length: int = WINDOW_LENGTH,
                             hop: int = DETECTORS["energy"].hop,
                             draws: int = 100_000,
                             seed: int = 0) -> tuple[float, float]:
    """Analytic lower bound on P(the window at ``offset`` is emitted),
    returned with its Monte Carlo standard error as
    ``(probability, stderr)``.

    Combines, via Boole-Frechet, the threshold-exceedance probability with
    one comparison probability per neighbor.  Each comparison
    P(T[k] > T[k+gap]) is a ratio of two independent chi-squared sums
    (a singly non-central F) estimated by Monte Carlo: the emitted
    window's exclusive share carries its model noncentrality, while the
    competing share is evaluated under the noise-only null, the regime in
    which the two statistics are exchangeable and the comparison bound is
    usable on both sides of the onset.

    ``threshold`` is in energy units (the statistic's own scale).
    """
    for name, value in (("window_length", window_length), ("hop", hop),
                        ("draws", draws)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    rng = np.random.default_rng(seed)

    total = 0.0
    var_sum = 0.0
    for a in peak_config.neighbors:
        x_lo, x_hi, df = _neighbor_range(offset, a * hop, window_length)
        ncp_x = _range_ncp(model, x_lo, x_hi)
        x = rng.noncentral_chisquare(df, ncp_x, draws)
        y = rng.chisquare(df, draws)
        p = float(np.mean(x > y))
        total += p
        var_sum += p * (1.0 - p) / draws

    p_alpha = energy_tail_probability(model, threshold, offset, window_length)
    bound = total + p_alpha - len(peak_config.neighbors)
    return max(0.0, bound), math.sqrt(var_sum)


def energy_power_curve(model: OnsetModel, peak_config: PeakConfig,
                       threshold: float, offsets, *, seed: int = 0,
                       **bound_options) -> PowerCurve:
    """Evaluate :func:`energy_power_lower_bound` over a grid of offsets,
    with seed ``seed + i`` at the i-th offset; ``bound_options``
    (``window_length``, ``hop``, ``draws``) are passed on to it."""
    offsets = np.asarray(offsets, dtype=np.int64)
    pairs = [energy_power_lower_bound(model, peak_config, threshold, int(d),
                                      seed=seed + i, **bound_options)
             for i, d in enumerate(offsets)]
    # reshaped, so that an empty grid gives two empty arrays
    probs, errs = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return PowerCurve(offsets=offsets, probabilities=probs, stderrs=errs)


def monte_carlo_power(model: OnsetModel, detector_kind: DetectorKind,
                      peak_config: PeakConfig, trials: int, seed: int = 0,
                      **detector_options) -> PowerCurve:
    """Estimate the per-offset emission probability by simulating the full
    detector-plus-peak-picking pipeline; ``detector_options``
    (``window_length``, ``hop``, ``cutoff_hz``) are passed on to
    :func:`run_detector`, which fills in the detector's own defaults.

    Trial i draws a fresh realization with :func:`synth_signal` from
    ``SeedSequence(seed).spawn(trials)[i]``, derived as the trial starts
    (so results do not depend on how trials might be partitioned across
    workers), detects onsets, and credits the frame(s) at which onsets were
    emitted.  A frame's offset is its centre minus the onset sample, half a
    window later than the window start that :func:`energy_power_curve`
    measures.  The model's mean is built once, on the first trial, and
    shared by all of them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    emitted = []
    for i in range(trials):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        signal = synth_signal(model, child)
        with np.errstate(over="ignore", invalid="ignore"):  # loud models
            series = run_detector(signal, detector_kind, **detector_options)
            finite = np.isfinite(series.values.sum())  # mean threshold too
        if not finite:
            raise ValueError("amplitude or noise_sd overflows the detector")
        onsets = detect_peaks(series, peak_config)
        # exact: every onset time is one of the series' frame times
        emitted.append(np.searchsorted(series.times, onsets.times))
    # every trial has the same length, so the last series fixes the grid
    counts = np.bincount(np.concatenate(emitted), minlength=len(series))

    centers = np.arange(len(series)) * series.hop + series.window_length // 2
    probs = counts / trials
    return PowerCurve(offsets=centers - model.onset_index,
                      probabilities=probs,
                      stderrs=np.sqrt(probs * (1.0 - probs) / trials))


def write_power_csv(curve: PowerCurve, fh) -> None:
    """Emit (offset_samples, probability, stderr) rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["offset_samples", "probability", "stderr"])
    for d, p, err in zip(curve.offsets, curve.probabilities, curve.stderrs):
        writer.writerow([int(d), repr(float(p)), f"{err:.3e}"])
