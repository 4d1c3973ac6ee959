import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humsearch import match, search
from humsearch.match import correlative_match
from humsearch.peaks import OnsetSequence
from humsearch.search import RankedEntry, RankedResult, rank
from humsearch.store import Database, SongRecord

PATTERNS = {
    "s01": [0, 1, 2, 3, 5],
    "s02": [0, 2, 3, 6, 7],
    "s03": [0, 1, 4, 5, 9],
    "s04": [0, 3, 4, 5, 8],
    "s05": [0, 1, 2, 6, 10],
    "s06": [0, 4, 6, 7, 11],
    "s07": [0, 2, 5, 9, 10],
    "s08": [0, 1, 3, 7, 12],
    "s09": [0, 5, 6, 8, 13],
    "s10": [0, 2, 4, 9, 14],
}


def build_db():
    return Database(records=tuple(
        SongRecord(id=sid, title=sid.upper(),
                   onsets_beats=OnsetSequence(
                       times=np.asarray(beats, float), unit="beats"))
        for sid, beats in PATTERNS.items()
    ))


def seconds(times):
    return OnsetSequence(times=np.asarray(times, float), unit="seconds")


class TestRank:
    def test_exact_record_ranks_first(self):
        db = build_db()
        query = seconds(np.asarray(PATTERNS["s03"], float) * 0.5 + 1.0)
        result = rank(db, query)
        assert result.entries[0].song_id == "s03"
        assert result.entries[0].match.score == pytest.approx(1.0, rel=1e-12)
        assert result.entries[0].match.beta == pytest.approx(0.5, rel=1e-9)
        assert result.entries[0].match.alpha == pytest.approx(1.0, rel=1e-9)

    def test_ordering_matches_pairwise_recomputation(self):
        db = build_db()
        query = seconds(np.asarray(PATTERNS["s07"], float) * 0.4 + 0.3)
        result = rank(db, query, top_k=10)
        oracle = sorted(
            ((rec.id, correlative_match(query, rec.onsets_beats).score)
             for rec in db.records),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert [e.song_id for e in result.entries] == [sid for sid, _ in oracle]
        assert [e.match.score for e in result.entries] == pytest.approx(
            [s for _, s in oracle])

    def test_record_order_irrelevant(self):
        db = build_db()
        shuffled = Database(records=tuple(reversed(db.records)))
        query = seconds(np.asarray(PATTERNS["s05"], float) * 0.45 + 0.2)
        a = rank(db, query, top_k=10)
        b = rank(shuffled, query, top_k=10)
        assert [e.song_id for e in a.entries] == [e.song_id for e in b.entries]
        assert ([e.match.score for e in a.entries]
                == [e.match.score for e in b.entries])

    def test_top_k_truncates(self):
        result = rank(build_db(), seconds([0.0, 0.5, 1.0, 1.5, 2.5]), top_k=3)
        assert len(result.entries) == 3

    def test_closeness_flags(self):
        db = build_db()
        query = seconds(np.asarray(PATTERNS["s01"], float) * 0.5)
        result = rank(db, query, top_k=10, closeness=0.05)
        assert result.entries[0].within_closeness
        flagged = [e for e in result.entries if e.within_closeness]
        threshold = result.entries[0].match.score - 0.05
        for e in result.entries:
            assert e.within_closeness == (e.match.score >= threshold)
        assert len(flagged) >= 1

    def test_scores_non_increasing(self):
        result = rank(build_db(), seconds([0.1, 0.9, 2.2, 3.0]), top_k=10)
        scores = [e.match.score for e in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            rank(Database(records=()), seconds([0.0, 1.0]))

    def test_short_query_rejected(self):
        # checked before the database, so an empty one gives the same error
        for db in (build_db(), Database(records=())):
            with pytest.raises(ValueError, match="re-record"):
                rank(db, seconds([0.0]))

    def test_entries_carry_each_songs_whole_match_result(self):
        # the SimilarityResult that correlative_match gives for the song,
        # matched count L included
        db = build_db()
        records = {rec.id: rec for rec in db.records}
        query = seconds([0.0, 0.4, 1.3, 1.6, 2.9, 3.3])
        result = rank(db, query, top_k=10)
        assert len(result.entries) == len(db)
        for e in result.entries:
            assert e.match == correlative_match(
                query, records[e.song_id].onsets_beats)
            assert e.title == records[e.song_id].title

    def test_no_scorable_song_names_the_first_skip(self):
        # every song's anchor maps overflow on these onset times
        with pytest.raises(ValueError) as info:
            rank(build_db(), seconds([1e300, 1.5e300, 1.7e308]))
        assert str(info.value) == (
            "no scorable records in database (10 skipped; first 's01': no "
            "anchor cell gives a finite score)")

    @pytest.mark.parametrize("closeness", [-0.01, float("nan")])
    def test_negative_or_nan_closeness_rejected(self, closeness):
        with pytest.raises(ValueError, match="closeness"):
            rank(build_db(), seconds([0.0, 1.0]), closeness=closeness)


def exhaustive_rank(db, query, top_k=5, closeness=0.05):
    """``rank`` as it was before it pruned, kept as its oracle: every song
    scored in full, in database order."""
    if len(query) < 2:
        raise ValueError(
            "query produced fewer than 2 onsets; please re-record with "
            "clearer rhythm")
    if len(db) == 0:
        raise ValueError("empty database")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    if not closeness >= 0:
        raise ValueError("closeness must be non-negative")
    scored, skipped = [], []
    for rec in db.records:
        try:
            sim = correlative_match(query, rec.onsets_beats)
        except ValueError as exc:
            skipped.append((rec.id, str(exc)))
            continue
        scored.append((rec, sim))
    if not scored:
        first_id, reason = skipped[0]
        raise ValueError(f"no scorable records in database ({len(skipped)} "
                         f"skipped; first {first_id!r}: {reason})")
    scored.sort(key=lambda pair: (-pair[1].score, pair[0].id))
    best = scored[0][1].score
    return RankedResult(entries=tuple(
        RankedEntry(rec.id, rec.title, sim, sim.score >= best - closeness)
        for rec, sim in scored[:top_k]), skipped=tuple(skipped))


def rank_outcome(rank_fn, *args, **kwargs):
    """The repr of the entries and skipped songs, bit for bit in every
    float, or the message of the error raised."""
    try:
        result = rank_fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return repr((result.entries, result.skipped))


def song(song_id, beats):
    return SongRecord(id=song_id, title=song_id.upper(),
                      onsets_beats=OnsetSequence(
                          times=np.asarray(beats, float), unit="beats"))


@st.composite
def pruning_catalogue(draw):
    """A catalogue of 1-8 songs of 2-21 onsets, among them duplicate
    rhythms under other ids (exact ties), songs whose anchor maps
    overflow and songs whose mapped onsets collapse, and a query that is
    a copy of a song or a random rhythm, spanning 30, 1e200 (sums of
    squares overflow), 1e-81 (their product underflows) or the largest
    floats."""
    rhythms = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["plain", "plain", "duplicate", "overflow", "collapse"]))
        steps = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                              min_size=1, max_size=20))
        beats = np.cumsum([0.0] + steps)
        if kind == "duplicate" and rhythms:
            beats = draw(st.sampled_from(rhythms))
        elif kind == "overflow":
            beats = beats * 1e300
        elif kind == "collapse":
            beats = np.append(beats * 1e-300, 1e10)
        rhythms.append(beats)
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(rhythms))]))
    db = Database(records=tuple(map(song, ids, rhythms)))
    source = draw(st.sampled_from(rhythms))
    if draw(st.booleans()):  # a copy, jittered on a grid so scores tie
        times = 0.5 + 0.4 * source + 0.01 * np.array(draw(st.lists(
            st.sampled_from([-1, 0, 1]), min_size=len(source),
            max_size=len(source))))
    else:
        times = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=2,
                                        max_size=24)))
    scale = draw(st.sampled_from([30.0, 1e200, 1e-81, 1.7e308]))
    try:
        with np.errstate(over="ignore"):
            query = OnsetSequence(times=np.sort(times) / times.max() * scale)
    except ValueError:  # the copy collapsed or overflowed
        query = OnsetSequence(times=np.array([0.0, 1.0]))
    return db, query, draw(st.integers(1, len(db) + 1))


class TestPrunedRankIsExhaustive:
    """``rank`` stops scoring a song that cannot reach the top k, and its
    entries, skipped songs and errors are bit for bit those of scoring
    every song."""

    @settings(max_examples=200, deadline=None)
    @given(case=pruning_catalogue(), chunk=st.sampled_from([1, 7, 1024]))
    def test_equals_the_exhaustive_loop(self, case, chunk):
        db, query, top_k = case
        with mock.patch.object(match, "_CHUNK_CELLS", chunk):
            got = rank_outcome(rank, db, query, top_k=top_k)
        assert got == rank_outcome(exhaustive_rank, db, query, top_k=top_k)

    @settings(max_examples=100, deadline=None)
    @given(case=pruning_catalogue(), at=st.floats(0, 1),
           chunk=st.sampled_from([1, 7, 1024]))
    def test_a_floor_drops_only_songs_below_it(self, case, at, chunk):
        # None only for a song whose full score is finite and below the
        # floor; any other song gets its result or error as without one
        db, query, _ = case
        for rec in db.records:
            try:
                want = correlative_match(query, rec.onsets_beats)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    correlative_match(query, rec.onsets_beats, floor=at)
                continue
            for floor in (at, want.score, np.nextafter(want.score, 2)):
                with mock.patch.object(match, "_CHUNK_CELLS", chunk):
                    got = correlative_match(query, rec.onsets_beats,
                                            floor=floor)
                assert got == want or (got is None and want.score < floor)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_catalogues(self, seed, tmp_path):
        # the onset_rank workload's catalogue and listings; at least one
        # song per query goes unscored, so the saving cannot vanish unseen
        spec = importlib.util.spec_from_file_location(
            "corpus", Path(__file__).parents[1] / "bench" / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        made = corpus.onset_rank(seed, str(tmp_path))
        db = Database(records=tuple(song(s["id"], s["beats"])
                                    for s in made["songs"]))
        dropped = []

        def counting(query, reference, floor):
            sim = correlative_match(query, reference, floor=floor)
            dropped[-1] += sim is None
            return sim

        for listing in made["queries"]:
            with open(listing["path"], encoding="utf-8") as fh:
                query = OnsetSequence(times=np.asarray(json.load(fh)))
            dropped.append(0)
            with mock.patch.object(search, "correlative_match", counting):
                got = rank_outcome(rank, db, query)
            assert got == rank_outcome(exhaustive_rank, db, query)
        assert min(dropped) >= 1
