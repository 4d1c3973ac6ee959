import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humsearch.detect import DetectionSeries
from humsearch.peaks import (
    OnsetSequence,
    PeakConfig,
    detect_peaks,
    symmetric_neighbors,
    threshold_value,
)

from conftest import wide_range_times


def series_of(values, dt=0.01):
    values = np.asarray(values, dtype=np.float64)
    times = np.arange(len(values)) * dt
    return DetectionSeries(values=values, times=times, hop=1,
                           window_length=2, detector_kind="energy")


def oracle_peaks(series, config):
    """Hand-enumeration re-implementation of the picking loop."""
    values, times = series.values, series.times
    thr = threshold_value(series, config.threshold_rule,
                          config.threshold_scale)
    out = []
    k = 0
    while k < len(values):
        ok = values[k] > thr
        for a in config.neighbors:
            j = k + a
            other = values[j] if 0 <= j < len(values) else 0.0
            ok = ok and values[k] > other
        if ok:
            out.append(times[k])
            k2 = k
            while k2 < len(values) and times[k2] - times[k] <= config.min_gap:
                k2 += 1
            k = k2
        else:
            k += 1
    return out


def loop_peaks(series, config):
    """The straightforward per-index picking loop, detect_peaks' exact
    oracle: visit 0, 1, 2, ...; after an emission at time t resume at the
    first index whose time exceeds t + min_gap."""
    values = series.values
    times = series.times
    n = len(values)
    thr = threshold_value(series, config.threshold_rule,
                          config.threshold_scale)
    onsets = []
    k = 0
    while k < n:
        if values[k] > thr and _beats_neighbors(values, k, config.neighbors):
            onsets.append(float(times[k]))
            resume = np.searchsorted(times, times[k] + config.min_gap, "right")
            k = int(resume)
        else:
            k += 1
    return np.asarray(onsets)


def _beats_neighbors(values, k, neighbors):
    n = len(values)
    for a in neighbors:
        j = k + a
        other = values[j] if 0 <= j < n else 0.0
        if not values[k] > other:
            return False
    return True


class TestSymmetricNeighbors:
    def test_radius_two(self):
        assert symmetric_neighbors(2) == (-2, -1, 1, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            symmetric_neighbors(0)


class TestPeakConfig:
    def test_defaults(self):
        # each detector has its own radius, so neighbors has no default
        with pytest.raises(TypeError, match="neighbors"):
            PeakConfig()
        cfg = PeakConfig(neighbors=symmetric_neighbors(8))
        assert cfg.neighbors == symmetric_neighbors(8)
        assert (cfg.threshold_rule, cfg.threshold_scale, cfg.min_gap) == (
            "mean", 1.0, 0.1)

    def test_zero_neighbor_rejected(self):
        with pytest.raises(ValueError):
            PeakConfig(neighbors=(0, 1))

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValueError):
            PeakConfig(neighbors=())

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            PeakConfig(neighbors=(-1, 1), threshold_rule="median")

    @pytest.mark.parametrize("name", ["min_gap", "threshold_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PeakConfig(neighbors=(-1, 1), **{name: value})


class TestOnsetSequence:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            OnsetSequence(times=[1.0, 1.0])

    def test_text_and_json(self):
        seq = OnsetSequence(times=[0.5, 1.25])
        assert seq.to_text() == "0.500000\n1.250000\n"
        assert json.loads(seq.to_json()) == [0.5, 1.25]

    def test_json_matches_per_element_float_conversion(self):
        seq = OnsetSequence(times=wide_range_times())
        assert seq.to_json() == json.dumps([float(t) for t in seq.times])

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            OnsetSequence(times=[0.0], unit="minutes")

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            OnsetSequence(times=[[0.0, 1.0]])


class TestThresholdValue:
    def test_mean_of_constant(self):
        assert threshold_value(series_of([1, 1, 1, 1]), "mean") == 1.0

    def test_mean_scale_applied(self):
        assert threshold_value(series_of([2, 4]), "mean", 1.5) == 4.5

    def test_third_quartile_interpolates(self):
        # sorted order statistics at fractional position 0.75*(len-1)
        assert threshold_value(series_of([0, 1, 2, 3]),
                               "q3") == pytest.approx(2.25)
        oracle = np.percentile([0, 1, 2, 3], 75)
        assert oracle == pytest.approx(2.25)

    def test_third_quartile_scale_applied(self):
        series = series_of([0, 1, 2, 3])
        assert threshold_value(series, "q3", 2.0) == (
            2.0 * threshold_value(series, "q3"))

    def test_singleton(self):
        assert threshold_value(series_of([5]), "mean") == 5.0
        assert threshold_value(series_of([5]), "q3") == 5.0

    @pytest.mark.parametrize("values, rule, message", [
        ([], "mean", "empty series"),
        ([1, 2], "median", "unknown threshold rule: median"),
    ])
    def test_rejected(self, values, rule, message):
        with pytest.raises(ValueError, match=message):
            threshold_value(series_of(values), rule)


class TestDetectPeaks:
    def test_single_interior_maximum(self):
        series = series_of([0, 1, 0], dt=0.2)
        cfg = PeakConfig(neighbors=(-1, 1))
        assert detect_peaks(series, cfg).times == pytest.approx([0.2])

    def test_constant_series_silent(self):
        series = series_of([3, 3, 3, 3, 3])
        cfg = PeakConfig(neighbors=(-1, 1))
        assert len(detect_peaks(series, cfg)) == 0

    def test_close_equal_peaks_merge_to_earlier(self):
        # peaks 0.05 s apart with min_gap 0.1: the resume rule skips the
        # second one entirely
        values = [0, 5, 0, 0, 0, 5, 0]
        series = series_of(values, dt=0.0125)
        cfg = PeakConfig(neighbors=(-1, 1), min_gap=0.1)
        picked = detect_peaks(series, cfg)
        assert picked.times == pytest.approx([0.0125])
        assert picked.times == pytest.approx(oracle_peaks(series, cfg))

    def test_boundary_peak_detectable(self):
        series = series_of([5, 1, 1, 1])
        cfg = PeakConfig(neighbors=(-1, 1))
        assert detect_peaks(series, cfg).times == pytest.approx([0.0])

    def test_min_gap_spacing_post_hoc(self, rng):
        series = series_of(rng.uniform(0, 1, 300), dt=0.02)
        cfg = PeakConfig(neighbors=(-2, -1, 1, 2), min_gap=0.1)
        times = detect_peaks(series, cfg).times
        if len(times) > 1:
            assert np.min(np.diff(times)) > cfg.min_gap

    def test_threshold_monotonicity(self, rng):
        # spacing wider than min_gap: with no resume-skip interaction the
        # emitted set shrinks monotonically as the threshold rises (on
        # denser grids, suppressing an early onset can unlock later
        # indices that min_gap had skipped, so the set relation fails)
        series = series_of(rng.uniform(0, 1, 200), dt=0.15)
        cfg_lo = PeakConfig(neighbors=(-1, 1), threshold_scale=1.0)
        cfg_hi = PeakConfig(neighbors=(-1, 1), threshold_scale=1.5)
        low = set(detect_peaks(series, cfg_lo).times.tolist())
        high = set(detect_peaks(series, cfg_hi).times.tolist())
        assert high <= low

    def test_output_subset_of_series_times(self, rng):
        series = series_of(rng.uniform(0, 1, 200))
        cfg = PeakConfig(neighbors=(-1, 1))
        times = detect_peaks(series, cfg).times
        assert set(times.tolist()) <= set(series.times.tolist())

    @given(
        values=st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                        max_size=60),
        radius=st.integers(1, 4),
        rule=st.sampled_from(["mean", "q3"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_hand_enumeration_oracle(self, values, radius, rule):
        series = series_of(values, dt=0.03)
        cfg = PeakConfig(neighbors=symmetric_neighbors(radius),
                         threshold_rule=rule)
        got = detect_peaks(series, cfg).times
        assert got.tolist() == pytest.approx(oracle_peaks(series, cfg))

    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5]),
                        min_size=1, max_size=80),
        offsets=st.lists(st.integers(-90, 90).filter(bool), min_size=1,
                         max_size=5, unique=True),
        rule=st.sampled_from(["mean", "q3"]),
        scale=st.sampled_from([0.5, 1.0, 1.3]),
        dt=st.sampled_from([0.01, 0.03, 0.07, 0.1, 0.25]),
        min_gap=st.sampled_from([0.02, 0.1, 0.3]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle_exactly(self, values, offsets, rule, scale,
                                         dt, min_gap):
        # few distinct values, so that neighbors tie; grid steps on both
        # sides of min_gap, so that skipping interacts with later peaks;
        # asymmetric offsets, some reaching past both ends of the series
        series = series_of(values, dt=dt)
        cfg = PeakConfig(neighbors=tuple(offsets), threshold_rule=rule,
                         threshold_scale=scale, min_gap=min_gap)
        assert np.array_equal(detect_peaks(series, cfg).times,
                              loop_peaks(series, cfg))
