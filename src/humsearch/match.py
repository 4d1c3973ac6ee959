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
the anchor search in one batched NumPy pass over the feasible cells of a
group of songs, listed flat (row-major within a song, songs one after
another).  The pass gives each song the bound L^2/(m*n) of its largest
matched count L, so songs are decided best-first from it, and a song
above the floor is scored from the pass's own arrays, the single
definition of a cell's score and matched count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .peaks import OnsetSequence

__all__ = [
    "MatchResult",
    "SimilarityResult",
    "subset_match",
    "correlative_match",
    "mapped_onsets",
    "pair_songs",
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


def _mutual_nearest(q: np.ndarray, s: np.ndarray, starts: np.ndarray):
    """The nearest onset x[k] of sorted q to each s[k], and whether s[k] is
    in turn the nearest in its row to x[k]: s lists rows of sorted onsets
    flat, each row beginning at one of ``starts`` (the first at 0).
    Distance ties break toward the earlier onset on both sides."""
    # left = q[pos - 1] < s <= q[pos] = right, each index clipped to q: so
    # both differences are at least 0, or left and right are one onset
    pos = np.searchsorted(q, s)
    left = np.append(q[:1], q).take(pos)
    right = np.append(q, q[-1:]).take(pos)
    x = np.where(right - s < s - left, right, left)
    # s being sorted, x's nearest in the row is s[k] or a neighbour
    # s[k -+ 1], on the side of s[k] that x lies on; a row's first onset
    # has no earlier neighbour in the row and its last no later one.  A
    # later neighbour below x gives a negative distance, never the nearer.
    d = np.abs(s - x)
    earlier = np.empty(len(s), dtype=bool)
    np.less(d[1:], np.abs(s[:-1] - x[1:]), out=earlier[1:])
    earlier[starts] = True
    later = np.empty(len(s), dtype=bool)
    np.less_equal(d[:-1], s[1:] - x[:-1], out=later[:-1])
    later[starts - 1] = True  # each row's last onset, the last row's at -1
    left_of = x <= s
    return x, (earlier & left_of) | (later & ~left_of)


def subset_match(query: OnsetSequence, reference: OnsetSequence) -> MatchResult:
    """Mutual-nearest-neighbor matching of two sorted onset sequences.

    A query onset x is a true positive iff its nearest reference y has x
    as its own nearest query; the symmetric rule classifies reference
    onsets as detected or missed.
    """
    q, r = query.times, reference.times
    if len(q) == 0 or len(r) == 0:
        raise ValueError("query and reference must be non-empty")

    x, mutual = _mutual_nearest(q, r, np.zeros(1, dtype=np.intp))
    matched = x[mutual]
    return MatchResult(
        matched_entries=OnsetSequence(times=matched, unit=query.unit),
        detected_onsets=OnsetSequence(times=r[mutual], unit=reference.unit),
        false_positives=len(q) - len(matched),
        false_negatives=len(r) - len(matched),
    )


# Mapped onsets per pairing pass, the pass's memory bound: a song with
# more is paired in pieces of its cells, each within the budget.
_GROUP_ONSETS = 8192

_GUARD = 1e50


def _cells(n: int, m: int):
    """The cells that anchor the shorter side at its ends: their number and
    a function giving the anchors (a, b, c, d) of the cells k.  The longer
    side's anchors (i, j) run row-major over the pairs that span at least
    as many onsets as the shorter side has."""
    ends = (0, min(n, m) - 1)  # the shorter side's anchors
    # the cells of np.triu_indices(max(n, m), ends[1]), from |n - m| + 1 rows
    onsets = np.arange(max(n, m))
    ii, jj = np.nonzero(onsets >= onsets[ends[1]:, None])

    def anchors(k):
        return (ii[k], jj[k], *ends) if n >= m else (*ends, ii[k], jj[k])

    return len(ii), anchors


def mapped_onsets(n: int, m: int) -> int:
    """The mapped onsets that pairing all the cells of an n-onset query and
    an m-onset song lists: (d+1)(d+2)/2 cells for d = |n - m|, m each."""
    d = abs(n - m)
    return (d + 1) * (d + 2) // 2 * m


def _anchor_map(q: np.ndarray, r: np.ndarray, a, b, c, d):
    """The map s = alpha + beta * r of the anchor cell (q[a], q[b]) <->
    (r[c], r[d]): it puts r[c] on q[a] and r[d] on q[b].  Each anchor is a
    scalar or an array of one per cell."""
    beta = (q[b] - q[a]) / (r[d] - r[c])
    return q[a] - beta * r[c], beta


class _Pairing:
    """One pairing pass over pieces, each a reference r and the anchors
    (a, b, c, d) of some of its cells.  Every cell's mapped reference
    s = alpha + beta * r (its map bit for bit ``_anchor_map``'s at that one
    cell) is listed flat, row-major within a piece and pieces one after
    another, and paired with the query by one ``_mutual_nearest``.  Per piece it keeps the bound
    L^2/(m*n) of its largest matched count L and whether one of its cells
    surely scores finite: q and a valid row lie within +-_GUARD, so none of
    its sums overflows."""

    def __init__(self, q: np.ndarray, pieces):
        self.q = q
        self.m = [len(r) for r, *_ in pieces]
        maps = [_anchor_map(q, r, *cells) for r, *cells in pieces]
        cells = [len(alpha) for alpha, _ in maps]
        self.s = s = np.concatenate([
            (alpha[:, None] + beta[:, None] * r).ravel()
            for (alpha, beta), (r, *_) in zip(maps, pieces)])
        # each row's first onset and each piece's first row, then the end
        self.starts = np.concatenate(([0], np.repeat(self.m, cells).cumsum()))
        self.firsts = np.concatenate(([0], np.cumsum(cells)))
        starts = self.starts[:-1]
        first, last = s[starts], s[self.starts[1:] - 1]
        # the check that OnsetSequence makes of each mapped reference: a
        # strict rise from a first onset above -inf to a last below +inf
        rising = np.empty(len(s), dtype=bool)
        np.greater(s[1:], s[:-1], out=rising[1:])
        rising[starts] = True
        self.valid = (np.logical_and.reduceat(rising, starts)
                      & (first > -np.inf) & (last < np.inf))
        sure = self.valid & (-first < _GUARD) & (last < _GUARD)
        self.sure = np.logical_or.reduceat(sure, self.firsts[:-1]) & (
            max(-q[0], q[-1]) < _GUARD)

    @functools.cached_property
    def _pairs(self):
        """The mutual-nearest pairs (x, mutual) of every mapped onset, each
        row's matched count L and each piece's bound by its largest L."""
        starts = self.starts[:-1]
        x, mutual = _mutual_nearest(self.q, self.s, starts)
        L = np.add.reduceat(mutual, starts, dtype=np.intp)
        top = np.maximum.reduceat(L, self.firsts[:-1])
        return x, mutual, L, top * top / (len(self.q) * np.array(self.m))

    @property
    def bounds(self) -> np.ndarray:
        return self._pairs[3]

    def below(self, k: int, floor: float) -> bool:
        """Whether piece k's cells surely score finite and below floor."""
        return self.bounds[k] < floor and self.sure[k]

    def scores(self, k: int):
        """Scores of piece k's cells and their matched counts L.  A cell
        scores rho * L^2/(m*n) (0 where L < 2), rho its pairs' Pearson
        correlation clipped to [-1, 1] and 0 where the product of their
        sums of squares is not positive; NaN where its mapped reference is
        not a valid onset sequence.  Every sum runs along one C-contiguous
        row (a cell's reference onsets, zero where unmatched), so a cell's
        score does not depend on the cells that share its pass."""
        n, m = len(self.q), self.m[k]
        rows = slice(self.firsts[k], self.firsts[k + 1])
        onsets = slice(self.starts[rows.start], self.starts[rows.stop])
        x, mutual, L, _ = self._pairs
        x, s, mutual = (v[onsets].reshape(-1, m)
                        for v in (x, self.s, mutual))
        L = L[rows]
        count = np.maximum(L, 1)[:, None]

        def centred(v):
            mean = np.where(mutual, v, 0.0).sum(axis=1, keepdims=True) / count
            return np.where(mutual, v - mean, 0.0)

        dx, ds = centred(x), centred(s)
        v = (dx * dx).sum(axis=1) * (ds * ds).sum(axis=1)
        rho = np.divide((dx * ds).sum(axis=1), np.sqrt(v),
                        out=np.zeros(len(L)), where=v > 0)
        np.clip(rho, -1.0, 1.0, out=rho)
        scores = np.where(L >= 2, rho * (L * L / (n * m)), 0.0)
        return np.where(self.valid[rows], scores, np.nan), L


def pair_songs(query: OnsetSequence, references) -> tuple[list, np.ndarray]:
    """Pair every anchor cell of each of ``references`` in one pass; returns
    each song's share of the pass, for ``correlative_match(..., paired=)``,
    and each song's score bound by the largest matched count of its cells."""
    q, n = query.times, len(query)
    pieces = [(r.times, *_cells(n, len(r))[1](slice(None)))
              for r in references]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        run = _Pairing(q, pieces)
        bounds = run.bounds
    return [(run, k) for k in range(len(pieces))], bounds


def _batch_scores(q: np.ndarray, r: np.ndarray, a, b, c, d,
                  floor: float = -np.inf):
    """Scores and matched counts of the anchor cells (q[a], q[b]) <->
    (r[c], r[d]), paired together (``_Pairing.scores``); when their bound
    by their largest L is below ``floor`` and one surely scores finite, the
    scoring is skipped: they score NaN with a matched count of -1."""
    run = _Pairing(q, [(r, a, b, c, d)])
    return (np.nan, -1) if run.below(0, floor) else run.scores(0)


def _winner(q: np.ndarray, r: np.ndarray, floor: float, scores, matched):
    """The winning cell's score, alpha, beta and matched count, given every
    cell's score and L in ``_cells`` order, or None when cells went
    unscored below ``floor`` (L of -1) and no scored cell reaches it.
    Arg-max ties break toward the first cell.  A cell scores not finite
    only for an invalid mapped reference or an overflowing sum; it never
    wins, and a song with no other cell is rejected."""
    best = int(np.argmax(np.where(np.isfinite(scores), scores, -np.inf)))
    if not scores[best] >= floor and matched.min() < 0:
        return None
    if not np.isfinite(scores[best]):
        raise ValueError("no anchor cell gives a finite score")
    alpha, beta = _anchor_map(q, r, *_cells(len(q), len(r))[1](best))
    return float(scores[best]), alpha, beta, int(matched[best])


def _correlative_core(q: np.ndarray, r: np.ndarray, floor: float = -np.inf):
    """The ``_winner`` of a song paired alone, in pieces of its cells within
    the pass budget.  Returns None at once when its length bound
    min(n, m)^2/(n*m) is below ``floor`` and its first cell surely scores
    finite."""
    n, m = len(q), len(r)
    count, anchors = _cells(n, m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if min(n, m) ** 2 / (n * m) < floor and _Pairing(
                q, [(r, *anchors(slice(0, 1)))]).sure[0]:
            return None
        scores = np.empty(count)
        matched = np.empty(count, dtype=np.int64)
        step = max(1, _GROUP_ONSETS // m)
        for start in range(0, count, step):
            piece = slice(start, start + step)
            scores[piece], matched[piece] = _batch_scores(
                q, r, *anchors(piece), floor)
        return _winner(q, r, floor, scores, matched)


def correlative_match(query: OnsetSequence, reference: OnsetSequence,
                      floor: float = -np.inf, *,
                      paired=None) -> SimilarityResult | None:
    """Best affine alignment of query onsets (seconds) against reference
    onsets (beats), scored by penalized Pearson correlation.

    The reference is always mapped onto the query, s = alpha + beta * r,
    so alpha and beta are query-side, whichever side is longer.  It may
    return None for a song whose best score is surely finite and below
    ``floor``, without scoring every cell; otherwise it is as floorless.
    ``paired`` is the song's share of a ``pair_songs`` pass of this query,
    so that it is not paired again; without one the song is paired alone.
    """
    if len(query) < 2 or len(reference) < 2:
        raise ValueError("need at least 2 onsets on each side")
    q, r = query.times, reference.times
    if paired is None:
        core = _correlative_core(q, r, floor)
    else:
        run, k = paired
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            core = None if run.below(k, floor) else _winner(
                q, r, floor, *run.scores(k))
    return None if core is None else SimilarityResult(*core)
