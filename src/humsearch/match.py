"""Onset-sequence matching.

Subset matching pairs two sorted onset sequences by mutual nearest
neighbors, classifying query onsets as true/false positives and reference
onsets as detected/missed.  Correlative matching searches over anchor
pairs defining an affine time map from reference beats to query seconds,
scoring each candidate alignment by the Pearson correlation of the matched
pairs times a penalty of L^2/(m*n) for unmatched onsets on either side.

All anchor cells of a song are scored in one batched NumPy pass; the
batched scores only filter, and the cells within ``_TIE_TOL`` of their
maximum are rescored exactly, one at a time, by ``subset_match`` and
``pearson``, which stay the single definition of the score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .peaks import OnsetSequence

__all__ = [
    "MatchResult",
    "SimilarityResult",
    "subset_match",
    "correlative_match",
    "pearson",
]


@dataclass(frozen=True)
class MatchResult:
    """Mutual-nearest alignment of a query against a reference.

    ``matched_entries`` (subset of the query) and ``detected_onsets``
    (subset of the reference) pair up index-for-index; the leftovers are
    counted as false positives and false negatives respectively.
    """

    matched_entries: OnsetSequence
    detected_onsets: OnsetSequence
    false_positives: int
    false_negatives: int

    @property
    def n_matched(self) -> int:
        return len(self.matched_entries)


@dataclass(frozen=True)
class SimilarityResult:
    """Best-scoring alignment of a query against one reference song."""

    score: float
    alpha: float  # time offset, seconds
    beta: float   # scale, seconds per beat
    predicted_onsets: OnsetSequence
    match: MatchResult


def _nearest_indices(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target for each point; ties break toward the
    earlier (smaller) target."""
    pos = np.searchsorted(targets, points)
    left = np.clip(pos - 1, 0, len(targets) - 1)
    right = np.clip(pos, 0, len(targets) - 1)
    # prefer left on exact distance ties
    take_right = np.abs(targets[right] - points) < np.abs(points - targets[left])
    return np.where(take_right, right, left)


def subset_match(query: OnsetSequence, reference: OnsetSequence) -> MatchResult:
    """Mutual-nearest-neighbor matching of two sorted onset sequences.

    A query onset x is a true positive iff its nearest reference y has x
    as its own nearest query; the symmetric rule classifies reference
    onsets as detected or missed.
    """
    q = query.times
    r = reference.times
    if len(q) == 0 or len(r) == 0:
        raise ValueError("query and reference must be non-empty")

    nearest_ref = _nearest_indices(q, r)
    nearest_query = _nearest_indices(r, q)
    mutual = nearest_query[nearest_ref] == np.arange(len(q))

    matched = q[mutual]
    detected = r[nearest_ref[mutual]]
    return MatchResult(
        matched_entries=OnsetSequence(times=matched, unit=query.unit),
        detected_onsets=OnsetSequence(times=detected, unit=reference.unit),
        false_positives=len(q) - len(matched),
        false_negatives=len(r) - len(matched),
    )


def pearson(a, b) -> float:
    """Pearson product-moment correlation; 0 when either side has zero
    variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    if len(a) < 2:
        raise ValueError("need at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    va = np.dot(da, da)
    vb = np.dot(db, db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return float(np.dot(da, db) / math.sqrt(va * vb))


def _cell_score(q: np.ndarray, scaled_ref: np.ndarray,
                query_unit: str) -> tuple[float, MatchResult]:
    result = subset_match(
        OnsetSequence(times=q, unit=query_unit),
        OnsetSequence(times=scaled_ref, unit=query_unit),
    )
    L = result.n_matched
    if L < 2:
        return 0.0, result
    correction = L * L / (len(q) * len(scaled_ref))
    rho = pearson(result.matched_entries.times, result.detected_onsets.times)
    return rho * correction, result


# Cells per batched chunk, in whole rows of anchors i; bounds the working
# set to about _CHUNK_CELLS * m floats per array on long songs.
_CHUNK_CELLS = 1024
# Batched and exact scores agree far closer than this, so every cell that
# can hold the exact maximum survives the filter.
_TIE_TOL = 1e-9


def _batch_scores(q: np.ndarray, r: np.ndarray, ii: np.ndarray,
                  jj: np.ndarray) -> np.ndarray:
    """Scores of the anchor cells (ii, jj), computed together.

    The affine maps and the mutual-nearest matching are bit-for-bit those
    of ``_cell_score``; only the Pearson sums round differently.
    """
    n, m = len(q), len(r)
    beta = (q[jj] - q[ii]) / (r[-1] - r[0])
    alpha = q[ii] - beta * r[0]
    s = alpha[:, None] + beta[:, None] * r
    invalid = ~(np.isfinite(s).all(axis=1)
                & (np.diff(s, axis=1) > 0).all(axis=1))
    if invalid.any():
        # the error the cell-by-cell search meets at its first invalid cell
        OnsetSequence(times=s[np.argmax(invalid)])

    # the nearest query onset x[c, k] of each mapped onset s[c, k]; the pair
    # is mutual iff s[c, k] is in turn the nearest mapped onset of x[c, k],
    # which, s being sorted, needs only its neighbours s[c, k -+ 1]: the
    # earlier one wins distance ties, as in _nearest_indices
    x = q[_nearest_indices(s, q)]
    d = np.abs(s - x)
    earlier = np.ones(s.shape, dtype=bool)
    earlier[:, 1:] = d[:, 1:] < np.abs(s[:, :-1] - x[:, 1:])
    later = np.ones(s.shape, dtype=bool)
    later[:, :-1] = (x[:, :-1] <= s[:, 1:]) & (
        d[:, :-1] <= np.abs(s[:, 1:] - x[:, :-1]))
    mutual = np.where(x <= s, earlier, later)

    L = mutual.sum(axis=1)
    count = np.maximum(L, 1)[:, None]

    def centred(v):
        mean = np.where(mutual, v, 0.0).sum(axis=1, keepdims=True) / count
        return np.where(mutual, v - mean, 0.0)

    dx, ds = centred(x), centred(s)
    vx = (dx * dx).sum(axis=1)
    vs = (ds * ds).sum(axis=1)
    rho = np.divide((dx * ds).sum(axis=1), np.sqrt(vx * vs),
                    out=np.zeros(len(s)), where=(vx > 0) & (vs > 0))
    return np.where(L >= 2, rho * (L * L / (n * m)), 0.0)


def _candidate_cells(q: np.ndarray, r: np.ndarray):
    """Anchors (i, j), in row-major order, whose batched score is within
    ``_TIE_TOL`` of the maximum or is not finite."""
    n, m = len(q), len(r)
    rows = max(1, _CHUNK_CELLS // (n - m + 1))
    top = -np.inf
    kept = []
    for i0 in range(0, n - m + 1, rows):
        i_rows = np.arange(i0, min(i0 + rows, n - m + 1))
        ii, jj = np.nonzero(np.arange(n) - i_rows[:, None] >= m - 1)
        ii += i0
        scores = _batch_scores(q, r, ii, jj)
        top = max(top, np.max(scores, initial=-np.inf,
                              where=np.isfinite(scores)))
        near = ~(scores < top - _TIE_TOL)
        kept.append((scores[near], ii[near], jj[near]))
    scores, ii, jj = (np.concatenate(a) for a in zip(*kept))
    near = ~(scores < top - _TIE_TOL)
    return zip(ii[near].tolist(), jj[near].tolist())


def _correlative_core(q: np.ndarray, r: np.ndarray, query_unit: str):
    """Anchor-pair search assuming len(q) >= len(r).

    Anchors (i, j) propose that reference endpoints r[0], r[-1] land on
    q[i], q[j]; cells with j - i < m - 1 are geometrically infeasible and
    never selected.  Arg-max ties break toward smallest i, then smallest j.
    Cells whose score is not finite never win; a song without a finite
    cell is rejected.
    """
    n, m = len(q), len(r)
    best = None
    # overflow on huge onset times shows up as a non-finite score instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ref_span = r[-1] - r[0]
        # a single cell (n == m) is its own maximum: nothing to filter
        cells = [(0, n - 1)] if n == m else _candidate_cells(q, r)
        for i, j in cells:
            beta = (q[j] - q[i]) / ref_span
            alpha = q[i] - beta * r[0]
            scaled = alpha + beta * r
            score, result = _cell_score(q, scaled, query_unit)
            if math.isfinite(score) and (best is None or score > best[0]):
                best = (score, alpha, beta, result)
    if best is None:
        raise ValueError("no anchor cell gives a finite score")
    return best


def correlative_match(query: OnsetSequence,
                      reference: OnsetSequence) -> SimilarityResult:
    """Best affine alignment of query onsets (seconds) against reference
    onsets (beats), scored by penalized Pearson correlation.

    When the query has fewer onsets than the reference the roles are
    swapped internally and the fitted map is inverted, so the reported
    alpha/beta and predicted onsets stay query-side.
    """
    q = query.times
    r = reference.times
    if len(q) < 2 or len(r) < 2:
        raise ValueError("need at least 2 onsets on each side")

    if len(q) >= len(r):
        score, alpha, beta, result = _correlative_core(q, r, query.unit)
        return SimilarityResult(
            score=score,
            alpha=alpha,
            beta=beta,
            predicted_onsets=result.matched_entries,
            match=result,
        )

    # deficit case: fit beats = alpha' + beta' * seconds, then invert so
    # matched/detected both come back in query-side seconds
    score, alpha_inv, beta_inv, swapped = _correlative_core(
        r, q, reference.unit)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        matched_times = (swapped.detected_onsets.times - alpha_inv) / beta_inv
        detected_times = (swapped.matched_entries.times - alpha_inv) / beta_inv
        alpha, beta = -alpha_inv / beta_inv, 1.0 / beta_inv
    if not np.all(np.isfinite(np.concatenate(
            ([alpha, beta], matched_times, detected_times)))):
        raise ValueError("the inverse of the fitted map overflows")
    matched = OnsetSequence(times=matched_times, unit=query.unit)
    detected = OnsetSequence(times=detected_times, unit=query.unit)
    result = MatchResult(
        matched_entries=matched,
        detected_onsets=detected,
        false_positives=swapped.false_negatives,
        false_negatives=swapped.false_positives,
    )
    return SimilarityResult(
        score=score,
        alpha=alpha,
        beta=beta,
        predicted_onsets=matched,
        match=result,
    )
