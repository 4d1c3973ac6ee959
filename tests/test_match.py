from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humsearch import match
from humsearch.match import (
    MatchResult,
    _cell_score,
    correlative_match,
    pearson,
    subset_match,
)
from humsearch.peaks import OnsetSequence


def seq(times, unit="seconds"):
    return OnsetSequence(times=np.asarray(times, dtype=np.float64), unit=unit)


def brute_force_subset_match(q, r):
    """Quadratic mutual-nearest oracle with ties toward earlier time."""

    def nearest(x, pool):
        best = 0
        for i in range(1, len(pool)):
            if abs(pool[i] - x) < abs(pool[best] - x):
                best = i
        return best

    pairs = []
    for i, x in enumerate(q):
        j = nearest(x, r)
        if nearest(r[j], q) == i:
            pairs.append((x, r[j]))
    matched = [p[0] for p in pairs]
    detected = [p[1] for p in pairs]
    return matched, detected, len(q) - len(pairs), len(r) - len(pairs)


def brute_force_correlative(q, r):
    """Independent re-implementation of the anchor-cell search."""
    n, m = len(q), len(r)
    span = r[-1] - r[0]
    best = None
    for i in range(n - m + 1):
        for j in range(max(m - 1, i + m - 1), n):
            beta = (q[j] - q[i]) / span
            alpha = q[i] - beta * r[0]
            scaled = alpha + beta * np.asarray(r)
            mq, md, fp, fn = brute_force_subset_match(list(q), list(scaled))
            L = len(mq)
            if L < 2:
                score = 0.0
            else:
                rho = np.corrcoef(mq, md)[0, 1]
                score = (0.0 if not np.isfinite(rho)
                         else rho * L * L / (n * m))
            if best is None or score > best[0]:
                best = (score, alpha, beta)
    return best


def loop_correlative_core(q, r, query_unit):
    """The cell-by-cell anchor search the batched kernel replaced, kept as
    its oracle: one ``_cell_score`` per feasible cell, in (i, j) order."""
    n, m = len(q), len(r)
    ref_span = r[-1] - r[0]
    best = None
    for i in range(n - m + 1):
        for j in range(max(m - 1, i + m - 1), n):
            beta = (q[j] - q[i]) / ref_span
            alpha = q[i] - beta * r[0]
            scaled = alpha + beta * r
            score, result = _cell_score(q, scaled, query_unit)
            if best is None or score > best[0]:
                best = (score, alpha, beta, result)
    if best is None:
        raise ValueError("no feasible anchor cell")
    return best


def assert_same_similarity(got, want):
    assert (got.score, got.alpha, got.beta) == (
        want.score, want.alpha, want.beta)
    assert (got.match.false_positives, got.match.false_negatives) == (
        want.match.false_positives, want.match.false_negatives)
    for a, b in ((got.match.matched_entries, want.match.matched_entries),
                 (got.match.detected_onsets, want.match.detected_onsets),
                 (got.predicted_onsets, want.predicted_onsets)):
        assert a.unit == b.unit
        assert np.array_equal(a.times, b.times)


def match_or_error(query, reference):
    try:
        return correlative_match(query, reference), None
    except ValueError as exc:
        return None, str(exc)


def assert_matches_loop(query, reference):
    got, got_error = match_or_error(query, reference)
    with mock.patch.object(match, "_correlative_core", loop_correlative_core):
        want, want_error = match_or_error(query, reference)
    assert got_error == want_error
    if want is not None:
        assert_same_similarity(got, want)


@st.composite
def tie_heavy_pair(draw):
    """Query seconds and reference beats on coarse binary grids, so that
    equal distances and equal scores, hence arg-max ties, really occur."""
    grid = st.sampled_from([0.25, 0.5, 1.0, 0.1, 0.3])
    n_ref = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["grid", "affine_copy", "intervals", "uniform"]))
    if kind == "intervals":
        steps = draw(st.lists(st.sampled_from([1.0, 2.0]),
                              min_size=n_ref - 1, max_size=n_ref - 1))
        beats = np.cumsum([0.0] + steps)
    else:
        beats = np.array(sorted(draw(st.sets(st.integers(0, 24),
                                             min_size=n_ref, max_size=n_ref))),
                         dtype=np.float64)
    if kind in ("affine_copy", "intervals"):
        beta = draw(st.sampled_from([0.25, 0.5, 0.75, 1.5]))
        alpha = draw(st.sampled_from([0.0, 0.5, 3.25]))
        extra = draw(st.sets(st.integers(0, 60), max_size=10))
        q = np.union1d(alpha + beta * beats, 0.25 * np.array(sorted(extra)))
        # drop some copied onsets to exercise the deficit side too
        keep = draw(st.integers(2, len(q)))
        q = q[:keep] if draw(st.booleans()) else q[len(q) - keep:]
    elif kind == "grid":
        step = draw(grid)
        q = step * np.array(sorted(draw(st.sets(st.integers(0, 40),
                                                min_size=2, max_size=20))))
    else:
        xs = draw(st.sets(st.floats(0, 30, allow_nan=False, width=32),
                          min_size=2, max_size=20))
        q = np.array(sorted(xs), dtype=np.float64)
    return (OnsetSequence(times=q, unit="seconds"),
            OnsetSequence(times=beats, unit="beats"))


class TestBatchedAnchorSearch:
    """The batched kernel returns exactly what the cell-by-cell loop does:
    same score, alpha, beta, matched and detected onsets, and the same
    arg-max cell among ties."""

    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair(), chunk=st.sampled_from([1, 2, 7, 1024]))
    def test_equals_loop_oracle(self, pair, chunk):
        query, reference = pair
        with mock.patch.object(match, "_CHUNK_CELLS", chunk):
            assert_matches_loop(query, reference)

    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair())
    def test_batch_scores_agree_with_cell_scores(self, pair):
        # the filter's premise: every batched score is the cell's exact
        # score up to rounding far below _TIE_TOL
        q, r = pair[0].times, pair[1].times
        if len(q) < len(r):
            q, r = r, q
        n, m = len(q), len(r)
        ii, jj = np.triu_indices(n, m - 1)
        try:
            batch = match._batch_scores(q, r, ii, jj)
        except ValueError:
            # some mapped reference collapses; the loop oracle meets it too
            with pytest.raises(ValueError):
                loop_correlative_core(q, r, "seconds")
            return
        for c, (i, j) in enumerate(zip(ii, jj)):
            beta = (q[j] - q[i]) / (r[-1] - r[0])
            exact, _ = _cell_score(q, q[i] - beta * r[0] + beta * r,
                                   "seconds")
            assert batch[c] == pytest.approx(exact, rel=0, abs=1e-12)

    @pytest.mark.parametrize("deficit", [False, True])
    def test_periodic_ties_across_chunks(self, deficit):
        # every cell (i, i + 3) is a perfect copy of the reference; the
        # first one must win, and the cells span more than one chunk
        q = 0.5 * np.arange(60) + 1.0
        r = np.arange(4, dtype=np.float64)
        assert (60 - 4 + 1) * (60 - 4 + 2) // 2 > match._CHUNK_CELLS
        query, reference = (seq(q), seq(r, unit="beats"))
        if deficit:
            query, reference = seq(r), seq(q, unit="beats")
        assert_matches_loop(query, reference)
        assert correlative_match(query, reference).score > 0

    def test_best_cell_in_a_later_chunk(self, rng):
        beats = np.array([0.0, 1.0, 3.0, 4.0, 7.0])
        noise = np.sort(rng.uniform(0, 20, 50))
        copy = 40.0 + 0.6 * beats
        q = np.union1d(noise, copy)
        assert_matches_loop(seq(q), seq(beats, unit="beats"))
        assert correlative_match(seq(q), seq(beats, unit="beats")).alpha == (
            pytest.approx(40.0))

    def test_one_cell(self, rng):
        q = np.sort(rng.uniform(0, 10, 12))
        r = np.sort(rng.uniform(0, 10, 12))
        assert_matches_loop(seq(q), seq(r, unit="beats"))

    def test_no_finite_cell_is_rejected(self):
        with pytest.raises(ValueError, match="finite score"):
            correlative_match(seq([0.0, 0.5, 1.5, 1e308]),
                              seq([0, 1, 2, 3], unit="beats"))


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == 1.0

    def test_negation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_known_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.981, abs=1e-3)

    def test_zero_variance(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1], [1])
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_agrees_with_numpy(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1],
                                              rel=1e-12)


class TestSubsetMatch:
    def test_identical_sequences(self):
        result = subset_match(seq([1, 2, 3]), seq([1, 2, 3]))
        assert result.false_positives == 0
        assert result.false_negatives == 0
        assert result.matched_entries.times.tolist() == [1, 2, 3]

    def test_extra_query_onset(self):
        result = subset_match(seq([1.0, 2.0, 2.9]), seq([1.0, 3.0]))
        assert result.matched_entries.times.tolist() == [1.0, 2.9]
        assert result.detected_onsets.times.tolist() == [1.0, 3.0]
        assert result.false_positives == 1
        assert result.false_negatives == 0

    def test_tie_breaks_toward_earlier(self):
        result = subset_match(seq([5.0]), seq([1.0, 9.0]))
        assert result.matched_entries.times.tolist() == [5.0]
        assert result.detected_onsets.times.tolist() == [1.0]
        assert result.false_positives == 0
        assert result.false_negatives == 1

    def test_role_swap_symmetry(self, rng):
        for _ in range(50):
            q = np.sort(rng.uniform(0, 10, rng.integers(1, 8)))
            r = np.sort(rng.uniform(0, 10, rng.integers(1, 8)))
            if (len(np.unique(q)) < len(q)) or (len(np.unique(r)) < len(r)):
                continue
            ab = subset_match(seq(q), seq(r))
            ba = subset_match(seq(r), seq(q))
            assert ab.false_positives == ba.false_negatives
            assert ab.false_negatives == ba.false_positives
            # the pairing itself need not be identical under swapping when
            # distance ties are present, but lengths always agree
            assert ab.n_matched == ba.n_matched

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            q = np.sort(rng.uniform(0, 10, rng.integers(1, 11)))
            r = np.sort(rng.uniform(0, 10, rng.integers(1, 11)))
            result = subset_match(seq(q), seq(r))
            mq, md, fp, fn = brute_force_subset_match(q.tolist(), r.tolist())
            assert result.matched_entries.times.tolist() == mq
            assert result.detected_onsets.times.tolist() == md
            assert result.false_positives == fp
            assert result.false_negatives == fn

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subset_match(seq([]), seq([1.0]))


class TestCorrelativeMatch:
    def test_identical_is_perfect(self):
        r = seq([0, 1, 2, 4], unit="beats")
        q = seq([0, 1, 2, 4])
        result = correlative_match(q, r)
        assert result.score == pytest.approx(1.0, rel=1e-12)
        assert result.beta == pytest.approx(1.0, rel=1e-12)
        assert result.alpha == pytest.approx(0.0, abs=1e-12)

    def test_affine_recovered_exactly(self):
        beats = np.array([0.0, 1.0, 2.5, 4.0, 6.0])
        q = seq(2.5 * beats + 7.0)
        result = correlative_match(q, seq(beats, unit="beats"))
        assert result.score == pytest.approx(1.0, rel=1e-12)
        assert result.beta == pytest.approx(2.5, rel=1e-12)
        assert result.alpha == pytest.approx(7.0, rel=1e-12)

    def test_spurious_onset_pays_correction_factor(self):
        beats = np.array([0.0, 1.0, 2.0, 4.0])
        warped = 0.4 * beats + 1.0
        with_extra = np.sort(np.append(warped, 1.63))
        result = correlative_match(seq(with_extra), seq(beats, unit="beats"))
        m = len(beats)
        assert result.score == pytest.approx(m / (m + 1), rel=1e-9)

    def test_affine_invariance_of_query(self, rng):
        beats = np.sort(rng.uniform(0, 8, 5))
        q = np.sort(rng.uniform(0, 8, 7))
        base = correlative_match(seq(q), seq(beats, unit="beats"))
        moved = correlative_match(seq(3.25 * q + 11.0),
                                  seq(beats, unit="beats"))
        assert moved.score == pytest.approx(base.score, rel=1e-9, abs=1e-12)

    def test_score_bounded_by_correction(self, rng):
        for _ in range(30):
            q = np.sort(rng.uniform(0, 10, rng.integers(2, 9)))
            r = np.sort(rng.uniform(0, 10, rng.integers(2, 9)))
            result = correlative_match(seq(q), seq(r, unit="beats"))
            match = result.match
            cap = match.n_matched ** 2 / (len(q) * len(r))
            assert result.score <= cap + 1e-12

    def test_matches_naive_cell_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(2, 5))
            q = np.sort(rng.uniform(0, 10, n))
            r = np.sort(rng.uniform(0, 10, m))
            result = correlative_match(seq(q), seq(r, unit="beats"))
            score, alpha, beta = brute_force_correlative(q, r)
            assert result.score == pytest.approx(score, rel=1e-9, abs=1e-12)

    def test_deficit_case_swaps_and_inverts(self):
        beats = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        full_query = 0.5 * beats + 2.0
        short_query = full_query[[0, 2, 4]]
        result = correlative_match(seq(short_query), seq(beats, unit="beats"))
        assert result.beta == pytest.approx(0.5, rel=1e-9)
        assert result.alpha == pytest.approx(2.0, rel=1e-9)
        # 3 of 5 reference onsets matched perfectly
        assert result.score == pytest.approx(9 / 15, rel=1e-9)
        assert result.predicted_onsets.unit == "seconds"
        assert result.predicted_onsets.times == pytest.approx(short_query)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            correlative_match(seq([1.0]), seq([0, 1], unit="beats"))
