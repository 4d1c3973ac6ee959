"""Onset-sequence matching.

Subset matching pairs two sorted onset sequences by mutual nearest
neighbors, classifying query onsets as true/false positives and reference
onsets as detected/missed.  Correlative matching searches over anchor
pairs defining an affine time map from reference beats to query seconds,
scoring each candidate alignment by the Pearson correlation of the matched
pairs times a penalty of L^2/(m*n) for unmatched onsets on either side.
The reference is always the side that is mapped; the anchors sit on the
longer side, so a short query pins its ends to two reference onsets.

The feasible anchor cells of a song are listed once, flat and row-major,
and scored in one batched NumPy pass over slices of that list, which is
the single definition of a cell's score; ``subset_match`` then pairs the
onsets of the winning cell alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .peaks import OnsetSequence

__all__ = [
    "MatchResult",
    "SimilarityResult",
    "subset_match",
    "correlative_match",
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
    match: MatchResult


def _nearest_indices(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target for each point; ties break toward the
    earlier (smaller) target."""
    pos = np.searchsorted(targets, points)
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos, len(targets) - 1)
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


# Cells per batched chunk; bounds the working set to about
# _CHUNK_CELLS * len(reference) floats per array.
_CHUNK_CELLS = 1024


def _anchor_map(q: np.ndarray, r: np.ndarray, i, j):
    """The map s = alpha + beta * r of the anchor cell (i, j), for scalar
    or array anchors; the anchors index the longer side.

    A query at least as long as the reference puts the reference's ends
    r[0], r[-1] on q[i], q[j]; a shorter query puts r[i], r[j] on its own
    ends q[0], q[-1].
    """
    if len(q) >= len(r):
        beta = (q[j] - q[i]) / (r[-1] - r[0])
        return q[i] - beta * r[0], beta
    beta = (q[-1] - q[0]) / (r[j] - r[i])
    return q[0] - beta * r[i], beta


def _batch_scores(q: np.ndarray, r: np.ndarray, ii: np.ndarray,
                  jj: np.ndarray) -> np.ndarray:
    """Scores of the anchor cells (ii, jj), computed together; NaN for a
    cell whose mapped reference is not a valid onset sequence.

    The affine maps are bit for bit those of ``_anchor_map`` at one cell,
    and the pairs those of ``subset_match``.  Every sum runs along one
    C-contiguous row (a cell's reference onsets, zero where unmatched), so
    a cell's score does not depend on the cells that share its chunk.
    """
    n, m = len(q), len(r)
    alpha, beta = _anchor_map(q, r, ii, jj)
    s = alpha[:, None] + beta[:, None] * r

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
    scores = np.where(L >= 2, rho * (L * L / (n * m)), 0.0)
    # the check that OnsetSequence makes of the mapped reference
    valid = np.isfinite(s).all(axis=1) & (s[:, 1:] > s[:, :-1]).all(axis=1)
    return np.where(valid, scores, np.nan)


def _correlative_core(q: np.ndarray, r: np.ndarray, query_unit: str):
    """Anchor-pair search over the cells of ``_anchor_map``.

    With n, m the longer and shorter length, the anchors (i, j) index the
    longer side; cells with j - i < m - 1 are geometrically infeasible and
    never selected.  Arg-max ties break toward smallest i, then smallest j.
    Cells whose score is not finite, or whose mapped reference overflows
    or collapses, never win; a song with no other cell is rejected.
    """
    n, m = max(len(q), len(r)), min(len(q), len(r))
    # cells j >= i + m - 1 in row-major order, as np.triu_indices(n, m - 1)
    # lists them but from an (n - m + 1) x n mask, not n x n
    ii, jj = np.nonzero(np.arange(n) >= np.arange(m - 1, n)[:, None])
    scores = np.empty(len(ii))
    # overflow on huge onset times shows up as a non-finite score instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c in range(0, len(ii), _CHUNK_CELLS):
            chunk = slice(c, c + _CHUNK_CELLS)
            scores[chunk] = _batch_scores(q, r, ii[chunk], jj[chunk])
        best = int(np.argmax(np.where(np.isfinite(scores), scores, -np.inf)))
        if not np.isfinite(scores[best]):
            raise ValueError("no anchor cell gives a finite score")
        alpha, beta = _anchor_map(q, r, ii[best], jj[best])
        result = subset_match(OnsetSequence(times=q, unit=query_unit),
                              OnsetSequence(times=alpha + beta * r,
                                            unit=query_unit))
    return float(scores[best]), alpha, beta, result


def correlative_match(query: OnsetSequence,
                      reference: OnsetSequence) -> SimilarityResult:
    """Best affine alignment of query onsets (seconds) against reference
    onsets (beats), scored by penalized Pearson correlation.

    The reference is always mapped onto the query, s = alpha + beta * r,
    so alpha and beta are query-side and the matched entries are query
    onsets, whichever side is longer.
    """
    if len(query) < 2 or len(reference) < 2:
        raise ValueError("need at least 2 onsets on each side")
    score, alpha, beta, result = _correlative_core(
        query.times, reference.times, query.unit)
    return SimilarityResult(score=score, alpha=alpha, beta=beta, match=result)
