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
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2, ncx2

from .audio import Signal
from .detect import (CUTOFF_HZ, DETECTORS, WINDOW_LENGTH, DetectorKind,
                     run_detector)
from .peaks import PeakConfig, detect_peaks

__all__ = [
    "OnsetModel",
    "PowerCurve",
    "BoundResult",
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
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.decay < 0:
            raise ValueError("decay must be non-negative")
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 <= self.onset_index < self.length:
            raise ValueError("onset_index must lie inside the signal")

    @classmethod
    def from_ssnr(cls, ssnr: float = REFERENCE_SSNR,
                  noise_variance: float = REFERENCE_NOISE_VARIANCE,
                  decay: float = 50.0, frequency: float = 440.0,
                  sample_rate: int = 48000, onset_index: int = 24576,
                  length: int = 48000) -> "OnsetModel":
        """Build a model from a squared SNR (A/sigma)^2 and noise variance."""
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

    def mean_sequence(self) -> np.ndarray:
        """Deterministic mean of each sample."""
        means = np.zeros(self.length)
        t = (np.arange(self.onset_index, self.length)
             - self.onset_index) / self.sample_rate
        means[self.onset_index:] = (
            self.amplitude * np.exp(-self.decay * t)
            * np.cos(2 * np.pi * self.frequency * t))
        return means


@dataclass(frozen=True)
class PowerCurve:
    """Per-offset probability that an onset is emitted at that offset,
    with the standard error of each estimate."""

    offsets: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    stderrs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if np.any((probs < 0) | (probs > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not len(probs) == len(self.offsets) == len(self.stderrs):
            raise ValueError("offsets, probabilities and stderrs must align")


@dataclass(frozen=True)
class BoundResult:
    """A probability estimate with its Monte Carlo standard error."""

    probability: float
    stderr: float


def synth_signal(model: OnsetModel, seed: int) -> Signal:
    """Draw one realization of the model; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    samples = model.mean_sequence() + rng.normal(
        0.0, model.noise_sd, model.length)
    return Signal(samples=samples, sample_rate=model.sample_rate)


def noncentrality_integral(model: OnsetModel, offset_samples: float) -> float:
    """Noncentrality accumulated over the first ``offset_samples`` samples
    after the onset:

    ``(S_f / sigma^2) * integral_0^t A^2 exp(-2 lam u) cos^2(2 pi f0 u) du``

    with ``t = offset_samples / S_f``, evaluated through its antiderivative.
    With ``a = 2 lam`` and ``b = 4 pi f0`` the integral is

    ``A^2 [(1 - e^{-at}) / 2a
    + (a + e^{-at} (b sin bt - a cos bt)) / 2(a^2 + b^2)]``,

    and ``A^2 (t/2 + sin(bt) / 2b)`` without decay (``A^2 t`` if also
    ``b = 0``).  Monotone non-decreasing in the offset.
    """
    if offset_samples < 0:
        raise ValueError("offset_samples must be non-negative")
    t = offset_samples / model.sample_rate
    a = 2.0 * model.decay
    b = 4.0 * math.pi * model.frequency
    if a > 0:
        value = (-math.expm1(-a * t) / (2.0 * a)
                 + (a + math.exp(-a * t)
                    * (b * math.sin(b * t) - a * math.cos(b * t)))
                 / (2.0 * (a * a + b * b)))
    elif b != 0:
        value = t / 2.0 + math.sin(b * t) / (2.0 * b)
    else:
        value = t
    return (model.sample_rate / model.noise_sd ** 2
            * model.amplitude ** 2 * value)


def _range_ncp(model: OnsetModel, lo: float, hi: float) -> float:
    """Noncentrality of the squared-sample sum over sample offsets
    [lo, hi) relative to the onset."""
    return max(noncentrality_integral(model, max(hi, 0.0))
               - noncentrality_integral(model, max(lo, 0.0)), 0.0)


def energy_tail_probability(model: OnsetModel, threshold: float,
                            offset: int,
                            window_length: int = WINDOW_LENGTH) -> float:
    """P(T > threshold) for the energy statistic of the window starting
    ``offset`` samples after the onset.

    T / sigma^2 is central chi-squared (window all noise), or noncentral
    with the accumulated-signal noncentrality when the window overlaps the
    onset or its decay tail.
    """
    sigma2 = model.noise_sd ** 2
    ncp = _range_ncp(model, offset, offset + window_length - 1)
    if ncp == 0.0:
        return float(chi2.sf(threshold / sigma2, window_length))
    return float(ncx2.sf(threshold / sigma2, window_length, ncp))


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
    comparison of two disjoint sums of squares of min(|gap|, w) samples
    each; returns (lo, hi, df), the onset-relative range [lo, hi) of the
    sum belonging to the window at ``offset`` and its sample count.
    """
    d, w = offset, window_length
    if abs(gap) >= w:
        return d, d + w, w
    if gap > 0:
        return d, d + gap, gap
    return d + w + gap, d + w, -gap


def energy_power_lower_bound(model: OnsetModel, peak_config: PeakConfig,
                             threshold: float, offset: int, *,
                             window_length: int = WINDOW_LENGTH,
                             hop: int = DETECTORS["energy"].hop,
                             draws: int = 100_000,
                             seed: int = 0) -> BoundResult:
    """Analytic lower bound on P(the window at ``offset`` is emitted).

    Combines, via Boole-Frechet, the threshold-exceedance probability with
    one comparison probability per neighbor.  Each comparison
    P(T[k] > T[k+gap]) is a ratio of two independent chi-squared sums
    (a doubly non-central F) estimated by Monte Carlo: the emitted
    window's exclusive share carries its model noncentrality, while the
    competing share is evaluated under the noise-only null, the regime in
    which the two statistics are exchangeable and the comparison bound is
    usable on both sides of the onset.

    ``threshold`` is in energy units (the statistic's own scale).
    """
    if draws < 1:
        raise ValueError("draws must be positive")
    rng = np.random.default_rng(seed)

    total = 0.0
    var_sum = 0.0
    for a in peak_config.neighbors:
        x_lo, x_hi, df = _neighbor_range(offset, a * hop, window_length)
        ncp_x = _range_ncp(model, x_lo, x_hi)
        x = rng.noncentral_chisquare(df, ncp_x, draws) if ncp_x > 0 \
            else rng.chisquare(df, draws)
        y = rng.chisquare(df, draws)
        p = float(np.mean(x > y))
        total += p
        var_sum += p * (1.0 - p) / draws

    p_alpha = energy_tail_probability(model, threshold, offset, window_length)
    bound = total + p_alpha - len(peak_config.neighbors)
    return BoundResult(
        probability=max(0.0, min(1.0, bound)),
        stderr=math.sqrt(var_sum),
    )


def energy_power_curve(model: OnsetModel, peak_config: PeakConfig,
                       threshold: float, offsets, *, seed: int = 0,
                       **bound_options) -> PowerCurve:
    """Evaluate :func:`energy_power_lower_bound` over a grid of offsets,
    with seed ``seed + i`` at the i-th offset; ``bound_options``
    (``window_length``, ``hop``, ``draws``) are passed on to it."""
    offsets = np.asarray(offsets, dtype=np.int64)
    probs = np.empty(len(offsets))
    errs = np.empty(len(offsets))
    for i, d in enumerate(offsets):
        result = energy_power_lower_bound(
            model, peak_config, threshold, int(d), seed=seed + i,
            **bound_options)
        probs[i] = result.probability
        errs[i] = result.stderr
    return PowerCurve(offsets=offsets, probabilities=probs, stderrs=errs)


def monte_carlo_power(model: OnsetModel, detector_kind: DetectorKind,
                      peak_config: PeakConfig, trials: int, seed: int = 0,
                      *, window_length: int = WINDOW_LENGTH,
                      hop: int | None = None,
                      cutoff_hz: float = CUTOFF_HZ) -> PowerCurve:
    """Estimate the per-offset emission probability by simulating the full
    detector-plus-peak-picking pipeline (``hop`` defaults to the
    detector's own, as in :func:`run_detector`).

    Each trial synthesizes a fresh realization, detects onsets, and
    credits the frame(s) at which onsets were emitted.  Per-trial seeds
    are spawned from the master seed, so results do not depend on how
    trials might be partitioned across workers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    emitted = []
    child_seeds = np.random.SeedSequence(seed).spawn(trials)
    for child in child_seeds:
        signal = synth_signal(model, child)
        series = run_detector(signal, detector_kind, window_length, hop,
                              cutoff_hz)
        onsets = detect_peaks(series, peak_config)
        emitted.append(onsets.times)
    # every trial has the same length, so the last series fixes the grid
    hop, n_frames = series.hop, len(series)
    frames = np.rint((np.concatenate(emitted) * model.sample_rate
                      - window_length / 2) / hop).astype(np.int64)
    counts = np.bincount(frames[(frames >= 0) & (frames < n_frames)],
                         minlength=n_frames)

    centers = np.arange(n_frames) * hop + window_length // 2
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
