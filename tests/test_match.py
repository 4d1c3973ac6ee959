import importlib.util
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humsearch import match
from humsearch.match import SimilarityResult, correlative_match, subset_match
from humsearch.peaks import OnsetSequence


def seq(times, unit="seconds"):
    return OnsetSequence(times=np.asarray(times, dtype=np.float64), unit=unit)


def _cell_score(q, scaled_ref):
    """Score and matched count L of one anchor cell, the loop oracle's: the
    pairs of ``brute_force_subset_match`` laid out along the mapped
    reference, zero at its unmatched onsets, and their Pearson correlation
    times L^2/(m*n): rho is clipped to [-1, 1] and is 0 where the product
    of the sums of squares is not positive."""
    matched, detected, _, _ = brute_force_subset_match(
        q.tolist(), scaled_ref.tolist())
    L = len(matched)
    if L < 2:
        return 0.0, L
    at = np.searchsorted(scaled_ref, detected)

    def centred(v):
        row = np.zeros(len(scaled_ref))
        row[at] = v
        row[at] -= row.sum() / L
        return row

    dx, ds = centred(matched), centred(detected)
    v = (dx * dx).sum() * (ds * ds).sum()
    rho = np.clip((dx * ds).sum() / np.sqrt(v), -1, 1) if v > 0 else 0.0
    return rho * (L * L / (len(q) * len(scaled_ref))), L


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


def loop_cells(q, r):
    """(score, alpha, beta, L) of every feasible anchor cell, in (i, j)
    order over the longer side, mapping the reference onto the query; a
    cell whose mapped reference is not an onset sequence scores NaN."""
    n, m = max(len(q), len(r)), min(len(q), len(r))
    for i in range(n - m + 1):
        for j in range(i + m - 1, n):
            if len(q) >= len(r):  # the reference's ends land on q[i], q[j]
                beta = (q[j] - q[i]) / (r[-1] - r[0])
                alpha = q[i] - beta * r[0]
            else:  # r[i], r[j] land on the query's ends
                beta = (q[-1] - q[0]) / (r[j] - r[i])
                alpha = q[0] - beta * r[i]
            try:
                score, L = _cell_score(q, seq(alpha + beta * r).times)
            except ValueError:
                score, L = np.nan, None
            yield score, alpha, beta, L


def loop_correlative_core(q, r, floor=-np.inf):
    """The cell-by-cell anchor search the batched kernel replaced, kept as
    its oracle: one ``_cell_score`` per feasible cell; the first cell with
    the largest finite score wins.  It scores every cell, so it takes no
    notice of a floor."""
    best = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for cell in loop_cells(q, r):
            if np.isfinite(cell[0]) and (best is None or cell[0] > best[0]):
                best = cell
    if best is None:
        raise ValueError("no anchor cell gives a finite score")
    return best


def two_branch_anchor_map(q, r, i, j):
    """The anchor map before a cell had an anchor pair on each side, kept
    as its oracle: (i, j) index the longer side, whose onsets take the
    shorter side's ends."""
    if len(q) >= len(r):
        beta = (q[j] - q[i]) / (r[-1] - r[0])
        return q[i] - beta * r[0], beta
    beta = (q[-1] - q[0]) / (r[j] - r[i])
    return q[0] - beta * r[i], beta


def end_anchored_cells(q, r):
    """The longer side's anchors (ii, jj) of every cell that anchors the
    shorter side at its ends, and a function giving a cell's (a, b, c, d)
    from its (i, j)."""
    n, m = max(len(q), len(r)), min(len(q), len(r))
    ii, jj = np.triu_indices(n, m - 1)

    def anchors(i, j):
        return (i, j, 0, m - 1) if len(q) >= len(r) else (0, m - 1, i, j)

    return ii, jj, anchors


def bit_equal(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def swapped_correlative_match(query, reference):
    """The anchor search before it had a single direction, kept as its
    oracle: a query shorter than the reference swapped the roles, fitted
    beats from seconds and inverted the fitted map."""

    def core(q, r):  # the longer q's anchors take r's ends
        best = None
        for i in range(len(q) - len(r) + 1):
            for j in range(i + len(r) - 1, len(q)):
                beta = (q[j] - q[i]) / (r[-1] - r[0])
                alpha = q[i] - beta * r[0]
                score, L = _cell_score(q, alpha + beta * r)
                if best is None or score > best[0]:
                    best = (score, alpha, beta, L)
        return best

    q, r = query.times, reference.times
    if len(q) >= len(r):
        return SimilarityResult(*core(q, r))
    score, alpha_inv, beta_inv, L = core(r, q)
    return SimilarityResult(score, -alpha_inv / beta_inv, 1.0 / beta_inv, L)


def assert_same_similarity(got, want):
    assert (got.score, got.alpha, got.beta, got.matched) == (
        want.score, want.alpha, want.beta, want.matched)


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
        # drop some copied onsets to exercise the short-query side too
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


@st.composite
def grid_onset_pair(draw):
    """Two 1-12-onset sequences on one grid, so that distances tie."""
    step = draw(st.sampled_from([0.25, 1.0, 0.1]))

    def onsets():
        ticks = draw(st.sets(st.integers(0, 24), min_size=1, max_size=12))
        return [step * k for k in sorted(ticks)]

    return onsets(), onsets()


class TestBatchedAnchorSearch:
    """The batched kernel returns exactly what the cell-by-cell loop does:
    same score, alpha, beta and matched count, and the same
    arg-max cell among ties."""

    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair(), chunk=st.sampled_from([1, 2, 7, 1024]))
    def test_equals_loop_oracle(self, pair, chunk):
        query, reference = pair
        with mock.patch.object(match, "_CHUNK_CELLS", chunk):
            assert_matches_loop(query, reference)

    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair(), chunk=st.sampled_from([1, 2, 7, 1024]))
    def test_batch_scores_agree_with_cell_scores(self, pair, chunk):
        # the batched score is the score: every cell's equals the oracle's
        # bit for bit, whichever cells share its chunk
        q, r = pair[0].times, pair[1].times
        ii, jj, anchors = end_anchored_cells(q, r)
        scores, counts = (np.concatenate(parts) for parts in zip(*(
            match._batch_scores(q, r, *anchors(ii[c:c + chunk],
                                               jj[c:c + chunk]))
            for c in range(0, len(ii), chunk))))
        want = list(loop_cells(q, r))
        assert np.array_equal(scores, [c[0] for c in want], equal_nan=True)
        # and so is L wherever the mapped reference is an onset sequence
        assert all(c[3] is None or c[3] == k for c, k in zip(want, counts))

    def test_cell_count_is_the_benchmarks(self, rng):
        # the benchmark's match.cells counter assumes (d+1)(d+2)/2 cells
        # for d = |n - m|; a change to the cell set must change it too
        spec = importlib.util.spec_from_file_location(
            "tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        batch_scores, scored = match._batch_scores, []

        def counting(*args):
            scores, counts = batch_scores(*args)
            scored.append(len(scores))
            return scores, counts

        for n, m in itertools.product(range(2, 13), repeat=2):
            q, r = (np.sort(rng.uniform(0, 10, k)) for k in (n, m))
            scored.clear()
            with mock.patch.object(match, "_batch_scores", counting), \
                    mock.patch.object(match, "_CHUNK_CELLS", 7):
                match._correlative_core(q, r)
            d = abs(n - m)
            assert sum(scored) == (d + 1) * (d + 2) // 2 == tracing._cells(
                q, r)

    @pytest.mark.parametrize("rows", [1, 2, 7, 1024])
    @pytest.mark.parametrize("length", [1, 5, 8, 77, 128, 129, 1000])
    def test_row_sums_equal_each_rows_own_sum(self, rows, length, rng):
        # the kernel's premise: summing C-contiguous rows along axis 1
        # rounds each row as its own 1-D sum does (numpy's pairwise sum
        # unrolls by 8 and splits blocks above 128)
        a = rng.normal(size=(rows, length)) * 10.0 ** rng.integers(
            -8, 9, size=(rows, length))
        a[rng.random(a.shape) < 0.3] = 0.0  # unmatched onsets
        got = a.sum(axis=1)
        assert all(got[k] == a[k].sum() for k in range(rows))

    def test_all_cells_tie(self, rng):
        # a 2-onset song lands on any two query onsets, so every cell
        # scores 4/(2 * n), exactly on a quarter-second grid and up to
        # rounding off it; the first of the top cells must win
        song = seq([0.0, 1.0], unit="beats")

        def grid_query(n):
            return seq(0.25 * np.sort(rng.choice(4 * n, n, replace=False)))

        assert_matches_loop(seq(np.sort(rng.uniform(0, 100, 60))), song)
        assert_matches_loop(grid_query(60), song)
        query = grid_query(300)  # 45 150 cells: too many for the loop
        first = next(loop_cells(query.times, song.times))
        got = correlative_match(query, song)
        assert_same_similarity(got, SimilarityResult(*first))
        assert got.score == 4 / (2 * 300)

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

    def test_invalid_cell_never_wins(self):
        # cell (0, 1) maps the reference with beta = inf, so it is no onset
        # sequence; the other two cells score 2/3 and the first one wins
        query, reference = seq([0.0, 1.0]), seq([0, 5e-324, 1], unit="beats")
        assert_matches_loop(query, reference)
        result = correlative_match(query, reference)
        assert (result.score, result.alpha, result.beta) == (2 / 3, 0.0, 1.0)

    @pytest.mark.parametrize("query, reference", [
        ([-1.7976931348623157e308, 1.7976931348623157e308], [0, 1, 2]),
        ([0.0, 0.5, 1.5, 1e308], [0, 1, 2, 3, 4, 5]),
    ])
    def test_song_without_a_valid_cell_is_rejected(self, query, reference):
        # every mapped reference overflows or collapses, or its score does
        with pytest.raises(ValueError, match="no anchor cell gives a finite"):
            correlative_match(seq(query), seq(reference, unit="beats"))


class TestScoreBound:
    """rho is clipped to [-1, 1] and is 0 where the product of the sums of
    squares is not positive, so a cell whose sums are finite scores finite
    and at most L^2/(m*n), however its rounding or underflow falls."""

    @pytest.mark.parametrize("scales", [10.0 ** np.arange(-84, -75),
                                        np.arange(1.0, 31.0)])
    def test_no_cell_scores_above_its_bound(self, scales, rng):
        # random 3-9-onset pairs, half of them exact affine copies; near
        # 1e-81 s the product of the sums of squares is subnormal
        for _ in range(300):
            n, m = (int(k) for k in rng.integers(3, 10, size=2))
            r = np.cumsum(rng.uniform(0.5, 3.0, m))
            if rng.random() < 0.5:
                q, n = 0.5 + 0.4 * r, m
            else:
                q = np.cumsum(rng.uniform(0.1, 2.0, n))
            q = q / q.max() * rng.choice(scales)
            ii, jj, anchors = end_anchored_cells(q, r)
            with np.errstate(all="ignore"):
                scores, L = match._batch_scores(q, r, *anchors(ii, jj))
            finite = np.isfinite(scores)
            assert (scores[finite] <= (L * L / (n * m))[finite]).all()

    @pytest.mark.parametrize("span", [5.0, 10.0, 20.0])
    def test_exact_copy_scores_at_most_one(self, span):
        beats = np.array([0, 1.5, 3, 4.5, 7.5, 9.5])
        result = correlative_match(seq(beats / beats.max() * span),
                                   seq(beats, unit="beats"))
        assert result.score == 1.0

    def test_underflowed_product_scores_zero(self):
        # near 1e-100 s each sum of squares is near 1e-200 and their
        # product underflows to 0: every cell scores 0, not inf
        beats = np.array([0.0, 1.0, 2.5, 4.0, 6.0])
        result = correlative_match(seq(1e-100 * beats),
                                   seq(beats, unit="beats"))
        assert (result.score, result.matched) == (0.0, 5)

    @pytest.mark.parametrize("floor", [0.5, 1.0, np.inf])
    def test_a_floor_keeps_the_rejection(self, floor):
        # every cell overflows, so the song is rejected, not dropped as
        # below the floor: q reaches past the size guard
        with pytest.raises(ValueError, match="no anchor cell gives a finite"):
            correlative_match(seq([0.0, 0.5, 1.5, 1e308]),
                              seq([0, 1, 2, 3, 4, 5], unit="beats"),
                              floor=floor)


class TestAnchorMap:
    """One formula maps every cell: an anchor pair on each side."""

    @settings(max_examples=150, deadline=None)
    @given(pair=tie_heavy_pair())
    def test_equals_two_branch_map(self, pair):
        # bit for bit on every end-anchored cell, scalar or batched, with
        # the query longer and with it shorter
        for q, r in ((pair[0].times, pair[1].times),
                     (pair[1].times, pair[0].times)):
            ii, jj, anchors = end_anchored_cells(q, r)
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                want = two_branch_anchor_map(q, r, ii, jj)
                got = match._anchor_map(q, r, *anchors(ii, jj))
                assert all(map(bit_equal, got, want))
                for i, j in zip(ii, jj):
                    got = match._anchor_map(q, r, *anchors(i, j))
                    assert all(map(bit_equal, got,
                                   two_branch_anchor_map(q, r, i, j)))

    def test_interior_cell(self):
        # no anchor at an end of either side; on dyadic times the map puts
        # r[c] and r[d] exactly on q[a] and q[b]
        q = np.array([0.0, 1.0, 1.75, 4.25, 6.0])
        r = np.array([0.0, 0.5, 1.5, 2.5, 4.0])
        a, b, c, d = 1, 3, 1, 3
        alpha, beta = match._anchor_map(q, r, a, b, c, d)
        assert (alpha, beta) == (0.1875, 1.625)
        mapped = alpha + beta * r
        assert (mapped[c], mapped[d]) == (q[a], q[b])
        # and the kernel scores it as the loop oracle scores its map
        scores, counts = match._batch_scores(q, r, np.array([a]), b, c, d)
        assert (scores[0], counts[0]) == _cell_score(q, mapped)


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
            assert len(ab.matched_entries) == len(ba.matched_entries)

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

    @settings(max_examples=300, deadline=None)
    @given(pair=grid_onset_pair())
    def test_distance_ties_match_brute_force_oracle(self, pair):
        # uniform floats almost never tie; onsets on one grid tie exactly
        # (or, on the 0.1 grid, up to rounding), so the tie rule is run
        for q, r in (pair, pair[::-1]):
            result = subset_match(seq(q), seq(r))
            assert (result.matched_entries.times.tolist(),
                    result.detected_onsets.times.tolist(),
                    result.false_positives, result.false_negatives) == (
                brute_force_subset_match(q, r))

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
            cap = result.matched ** 2 / (len(q) * len(r))
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

    def test_short_query_maps_the_reference_onto_it(self):
        beats = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        full_query = 0.5 * beats + 2.0
        short_query = full_query[[0, 2, 4]]
        result = correlative_match(seq(short_query), seq(beats, unit="beats"))
        assert result.beta == pytest.approx(0.5, rel=1e-9)
        assert result.alpha == pytest.approx(2.0, rel=1e-9)
        # 3 of 5 reference onsets matched perfectly
        assert result.score == pytest.approx(9 / 15, rel=1e-9)
        assert result.matched == 3

    def test_agrees_with_the_role_swap(self, rng):
        # without exact arg-max ties, mapping the song onto a short query
        # finds the cell that swapping the roles and inverting the map did
        compared = 0
        while compared < 300:
            q = np.sort(rng.uniform(0, 10, rng.integers(2, 13)))
            r = np.sort(rng.uniform(0, 10, rng.integers(2, 13)))
            with np.errstate(invalid="ignore"):
                scores = sorted(c[0] for c in loop_cells(q, r))
            if len(scores) > 1 and scores[-1] - scores[-2] < 1e-9:
                continue
            compared += 1
            got = correlative_match(seq(q), seq(r, unit="beats"))
            want = swapped_correlative_match(seq(q), seq(r, unit="beats"))
            for a, b in ((got.score, want.score), (got.alpha, want.alpha),
                         (got.beta, want.beta)):
                assert a == pytest.approx(b, rel=1e-12)
            assert got.matched == want.matched

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            correlative_match(seq([1.0]), seq([0, 1], unit="beats"))
