import numpy as np
import pytest

from humsearch.match import correlative_match
from humsearch.peaks import OnsetSequence
from humsearch.search import rank
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
