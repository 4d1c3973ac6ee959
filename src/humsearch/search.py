"""Rank database songs against a query onset sequence; each ranked entry
carries the song's :class:`.match.SimilarityResult` (score, alpha, beta and
the matched count L) as ``correlative_match`` returned it."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import match
from .match import SimilarityResult, correlative_match
from .peaks import OnsetSequence
from .store import Database

__all__ = ["RankedEntry", "RankedResult", "rank"]


@dataclass(frozen=True)
class RankedEntry:
    song_id: str
    title: str
    match: SimilarityResult
    within_closeness: bool


@dataclass(frozen=True)
class RankedResult:
    """Top candidates sorted by similarity, ties broken by ascending id."""

    entries: tuple[RankedEntry, ...]
    skipped: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def rank(db: Database, query: OnsetSequence, top_k: int = 5,
         closeness: float = 0.05) -> RankedResult:
    """Score the query against every record and return the best ``top_k``.

    Entries whose score comes within ``closeness`` of the maximum are
    flagged as credible alternatives.  Records that cannot be scored are
    skipped and reported, not fatal.  Songs are visited by their length
    bound min(n, m)/max(n, m), highest first, and paired in groups of at
    most ``match._GROUP_ONSETS`` mapped onsets, one pass per group; within
    a group they are decided by the bound of their largest matched count,
    highest first.  The k-th best score so far is the floor below which a
    song need not be scored in full.
    """
    if len(query) < 2:  # before the database, as a re-recording fixes it
        raise ValueError(
            "query produced fewer than 2 onsets; please re-record with "
            "clearer rhythm")
    if len(db) == 0:
        raise ValueError("empty database")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    if not closeness >= 0:  # NaN too
        raise ValueError("closeness must be non-negative")

    n, m = len(query), [len(rec.onsets_beats) for rec in db.records]
    scored, skipped = [], []
    top = []  # a min-heap of the best top_k scores so far

    def floor():
        return top[0] if len(top) == top_k else -math.inf

    def decide(i, paired=None):
        rec = db.records[i]
        try:
            sim = correlative_match(query, rec.onsets_beats, floor=floor(),
                                    paired=paired)
        except ValueError as exc:
            skipped.append((i, rec.id, str(exc)))
            return
        if sim is not None:
            scored.append((rec, sim))
            (heapq.heappush if len(top) < top_k else heapq.heappushpop)(
                top, sim.score)

    def decide_group(group):
        # best-first by the bound of each song's largest matched count
        shares, bounds = match.pair_songs(
            query, [db.records[i].onsets_beats for i in group])
        for k in np.argsort(-bounds, kind="stable"):
            decide(group[k], shares[k])

    group, size = [], 0  # the songs of the next pass, their mapped onsets
    for i in sorted(range(len(m)), key=lambda i: -min(n, m[i]) / max(n, m[i])):
        onsets = match.mapped_onsets(n, m[i])
        if group and size + onsets > match._GROUP_ONSETS:
            decide_group(group)
            group, size = [], 0
        # a song above the budget is paired alone, in pieces; one below the
        # floor by its length bound is decided from its first cell alone
        if (onsets > match._GROUP_ONSETS
                or min(n, m[i]) ** 2 / (n * m[i]) < floor()):
            decide(i)
        else:
            group.append(i)
            size += onsets
    if group:
        decide_group(group)
    skipped = [(song_id, reason) for _, song_id, reason in sorted(skipped)]
    if not scored:  # the database is not empty, so a song was skipped
        first_id, reason = skipped[0]
        raise ValueError(f"no scorable records in database ({len(skipped)} "
                         f"skipped; first {first_id!r}: {reason})")

    scored.sort(key=lambda pair: (-pair[1].score, pair[0].id))
    best = scored[0][1].score
    entries = tuple(
        RankedEntry(rec.id, rec.title, sim, sim.score >= best - closeness)
        for rec, sim in scored[:top_k]
    )
    return RankedResult(entries=entries, skipped=tuple(skipped))
