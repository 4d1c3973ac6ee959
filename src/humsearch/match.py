"""Onset-sequence matching.

Subset matching pairs two sorted onset sequences by mutual nearest
neighbors, classifying query onsets as true/false positives and reference
onsets as detected/missed.  Correlative matching searches over anchor
cells: an anchor pair on each side, (q[a], q[b]) <-> (r[c], r[d]), fixes
the affine map from reference beats to query seconds that puts r[c], r[d]
on q[a], q[b], and the alignment scores the Pearson correlation of the
matched pairs, clipped to [-1, 1], times a penalty of L^2/(m*n) for
unmatched onsets on either side.  Cells anchor the shorter side's ends.

One pairing rule serves both: ``subset_match`` runs it on one row, and
the anchor search on every feasible cell of a song, listed once, flat and
row-major, and scored in one batched NumPy pass over slices of that list,
the single definition of a cell's score and matched count.
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


@dataclass(frozen=True)
class SimilarityResult:
    """Best-scoring alignment of a query against one reference song."""

    score: float
    alpha: float  # time offset, seconds
    beta: float   # scale, seconds per beat
    matched: int  # L pairs: m - L false positives, n - L false negatives


def _mutual_nearest(q: np.ndarray, s: np.ndarray):
    """The nearest onset x[c, k] of sorted q to each s[c, k] (rows of sorted
    onsets), and whether s[c, k] is in turn the nearest in its row to
    x[c, k]; distance ties break toward the earlier onset on both sides."""
    pos = np.searchsorted(q, s)
    left = q[np.maximum(pos - 1, 0)]
    right = q[np.minimum(pos, len(q) - 1)]
    x = np.where(np.abs(right - s) < np.abs(s - left), right, left)
    # s being sorted, x's nearest in the row is s[c, k] or a neighbour
    # s[c, k -+ 1], on the side of s[c, k] that x lies on
    d = np.abs(s - x)
    earlier = np.ones(s.shape, dtype=bool)
    earlier[:, 1:] = d[:, 1:] < np.abs(s[:, :-1] - x[:, 1:])
    later = np.ones(s.shape, dtype=bool)
    later[:, :-1] = (x[:, :-1] <= s[:, 1:]) & (
        d[:, :-1] <= np.abs(s[:, 1:] - x[:, :-1]))
    return x, np.where(x <= s, earlier, later)


def subset_match(query: OnsetSequence, reference: OnsetSequence) -> MatchResult:
    """Mutual-nearest-neighbor matching of two sorted onset sequences.

    A query onset x is a true positive iff its nearest reference y has x
    as its own nearest query; the symmetric rule classifies reference
    onsets as detected or missed.
    """
    q, r = query.times, reference.times
    if len(q) == 0 or len(r) == 0:
        raise ValueError("query and reference must be non-empty")

    x, mutual = _mutual_nearest(q, r[None, :])
    matched = x[mutual]
    return MatchResult(
        matched_entries=OnsetSequence(times=matched, unit=query.unit),
        detected_onsets=OnsetSequence(times=r[mutual[0]], unit=reference.unit),
        false_positives=len(q) - len(matched),
        false_negatives=len(r) - len(matched),
    )


# Cells per batched chunk: about _CHUNK_CELLS * len(r) floats per array.
_CHUNK_CELLS = 1024

_GUARD = 1e50


def _anchor_map(q: np.ndarray, r: np.ndarray, a, b, c, d):
    """The map s = alpha + beta * r of the anchor cell (q[a], q[b]) <->
    (r[c], r[d]): it puts r[c] on q[a] and r[d] on q[b].  Each anchor is a
    scalar or an array of one per cell."""
    beta = (q[b] - q[a]) / (r[d] - r[c])
    return q[a] - beta * r[c], beta


def _skippable(q: np.ndarray, s: np.ndarray, valid: np.ndarray) -> bool:
    """Whether a cell of the mapped references ``s`` surely scores finite:
    q and a valid row lie within +-_GUARD, so none of its sums overflows."""
    sure = valid & (-s[:, 0] < _GUARD) & (s[:, -1] < _GUARD)
    return bool(max(-q[0], q[-1]) < _GUARD and sure.any())


def _batch_scores(q: np.ndarray, r: np.ndarray, a, b, c, d,
                  floor: float = -np.inf):
    """Scores of the anchor cells (q[a], q[b]) <-> (r[c], r[d]), computed
    together, and their matched counts L.  A cell scores rho * L^2/(m*n)
    (0 where L < 2), rho its pairs' Pearson correlation clipped to [-1, 1]
    and 0 where the product of their sums of squares is not positive; NaN
    where its mapped reference is not a valid onset sequence.

    The affine maps are bit for bit those of ``_anchor_map`` at one cell.
    Every sum runs along one C-contiguous row (a cell's reference onsets,
    zero where unmatched), so a cell's score does not depend on the cells
    that share its chunk.

    A ``_skippable`` chunk whose scores are bounded below ``floor``, by
    min(n, m) or after the matching by its largest L, skips the passes
    left: its cells score NaN with a matched count of -1.
    """
    n, m = len(q), len(r)
    alpha, beta = _anchor_map(q, r, a, b, c, d)
    s = alpha[:, None] + beta[:, None] * r
    # the check that OnsetSequence makes of the mapped reference
    valid = np.isfinite(s).all(axis=1) & (s[:, 1:] > s[:, :-1]).all(axis=1)

    def below(bound):
        return bound * bound / (n * m) < floor and _skippable(q, s, valid)

    if below(min(n, m)):
        return np.nan, -1
    x, mutual = _mutual_nearest(q, s)
    L = mutual.sum(axis=1)
    if below(L.max()):
        return np.nan, -1
    count = np.maximum(L, 1)[:, None]

    def centred(v):
        mean = np.where(mutual, v, 0.0).sum(axis=1, keepdims=True) / count
        return np.where(mutual, v - mean, 0.0)

    dx, ds = centred(x), centred(s)
    v = (dx * dx).sum(axis=1) * (ds * ds).sum(axis=1)
    rho = np.divide((dx * ds).sum(axis=1), np.sqrt(v), out=np.zeros(len(s)),
                    where=v > 0)
    np.clip(rho, -1.0, 1.0, out=rho)
    scores = np.where(L >= 2, rho * (L * L / (n * m)), 0.0)
    return np.where(valid, scores, np.nan), L


def _correlative_core(q: np.ndarray, r: np.ndarray, floor: float = -np.inf):
    """Anchor-pair search over the cells that anchor the shorter side at
    its ends; returns the winning cell's score, alpha, beta and matched
    count.  The longer side's anchors (i, j) run row-major over the pairs
    that span at least as many onsets as the shorter side has, and arg-max
    ties break toward smallest i, then smallest j.  A cell scores not
    finite only for an invalid mapped reference or an overflowing sum; it
    never wins, and a song with no other cell is rejected.  Returns None
    when a chunk went unscored below ``floor`` and no scored cell reaches it.
    """
    n, m = len(q), len(r)
    ends = (0, min(n, m) - 1)  # the shorter side's anchors
    # the cells of np.triu_indices(max(n, m), ends[1]), from |n - m| + 1 rows
    onsets = np.arange(max(n, m))
    ii, jj = np.nonzero(onsets >= onsets[ends[1]:, None])

    def anchors(k):  # (a, b, c, d) of the cells k
        return (ii[k], jj[k], *ends) if n >= m else (*ends, ii[k], jj[k])

    scores = np.empty(len(ii))
    matched = np.empty(len(ii), dtype=np.int64)
    # overflow on huge onset times shows up as a non-finite score instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(ii), _CHUNK_CELLS):
            chunk = slice(start, start + _CHUNK_CELLS)
            scores[chunk], matched[chunk] = _batch_scores(
                q, r, *anchors(chunk), floor)
        best = int(np.argmax(np.where(np.isfinite(scores), scores, -np.inf)))
        if not scores[best] >= floor and matched.min() < 0:
            return None
        if not np.isfinite(scores[best]):
            raise ValueError("no anchor cell gives a finite score")
        alpha, beta = _anchor_map(q, r, *anchors(best))
    return float(scores[best]), alpha, beta, int(matched[best])


def correlative_match(query: OnsetSequence, reference: OnsetSequence,
                      floor: float = -np.inf) -> SimilarityResult | None:
    """Best affine alignment of query onsets (seconds) against reference
    onsets (beats), scored by penalized Pearson correlation.

    The reference is always mapped onto the query, s = alpha + beta * r,
    so alpha and beta are query-side, whichever side is longer.  It may
    return None for a song whose best score is surely finite and below
    ``floor``, without scoring every cell; otherwise it is as floorless.
    """
    if len(query) < 2 or len(reference) < 2:
        raise ValueError("need at least 2 onsets on each side")
    core = _correlative_core(query.times, reference.times, floor)
    return None if core is None else SimilarityResult(*core)
