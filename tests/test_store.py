import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch.peaks import OnsetSequence
from humsearch.store import (
    Database,
    DatabaseError,
    SongRecord,
    db_load,
    db_save,
)

from conftest import wide_range_times


def record(song_id, onsets, title=None):
    return SongRecord(
        id=song_id,
        title=title or song_id.title(),
        onsets_beats=OnsetSequence(times=np.asarray(onsets, float),
                                   unit="beats"),
    )


class TestSongRecord:
    def test_requires_beats_unit(self):
        with pytest.raises(DatabaseError):
            SongRecord(id="s", title="S",
                       onsets_beats=OnsetSequence(times=[0.0, 1.0],
                                                  unit="seconds"))

    def test_requires_two_onsets(self):
        with pytest.raises(DatabaseError):
            record("s", [0.0])

    def test_requires_id(self):
        with pytest.raises(DatabaseError):
            record("", [0.0, 1.0])


class TestDatabase:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatabaseError, match="duplicate id"):
            Database(records=(record("s1", [0, 1]), record("s1", [0, 2])))


class TestDbLoad:
    def test_empty_array(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[]")
        assert len(db_load(path)) == 0

    def test_valid_document(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "s1", "title": "One", "onsets_beats": [0, 1, 2.5]},
        ]))
        db = db_load(path)
        assert db.records[0].onsets_beats.times.tolist() == [0, 1, 2.5]

    def test_non_increasing_onsets(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "s1", "title": "One", "onsets_beats": [0, 1, 1]},
        ]))
        with pytest.raises(DatabaseError) as info:
            db_load(path)
        assert str(info.value) == (
            "record #0 ('s1'): onset times must be strictly increasing")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "s1", "title": "One", "onsets_beats": [0, 1]},
            {"id": "s1", "title": "Two", "onsets_beats": [0, 2]},
        ]))
        with pytest.raises(DatabaseError, match="duplicate id"):
            db_load(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[{")
        with pytest.raises(DatabaseError) as info:
            db_load(path)
        assert str(info.value).startswith(f"parse error in {path}: ")

    def test_nested_too_deeply_to_decode(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DatabaseError, match="parse error"):
            db_load(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{}")
        with pytest.raises(DatabaseError):
            db_load(path)

    def test_error_reports_record_context(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "ok", "title": "OK", "onsets_beats": [0, 1]},
            {"id": "bad", "title": "Bad", "onsets_beats": [5]},
        ]))
        with pytest.raises(DatabaseError) as info:
            db_load(path)
        assert str(info.value) == "record #1 ('bad'): needs at least 2 onsets"

    def test_empty_id(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "", "title": "One", "onsets_beats": [0, 1]},
        ]))
        with pytest.raises(DatabaseError) as info:
            db_load(path)
        assert str(info.value) == "record #0 (''): id must be non-empty"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            db_load(tmp_path / "absent.json")


class TestDbSave:
    def test_round_trip_ten_records(self, tmp_path, rng):
        records = tuple(
            record(f"song{i:02d}",
                   np.cumsum(rng.integers(1, 4, size=6)).astype(float))
            for i in range(10)
        )
        db = Database(records=records)
        path = tmp_path / "db.json"
        db_save(db, path)
        loaded = db_load(path)
        assert len(loaded) == 10
        for a, b in zip(db.records, loaded.records):
            assert a.id == b.id
            assert a.title == b.title
            assert np.array_equal(a.onsets_beats.times, b.onsets_beats.times)

    def test_fractional_beats_exact(self, tmp_path):
        db = Database(records=(record("f", [0.0, 0.5, 1.5]),))
        path = tmp_path / "db.json"
        db_save(db, path)
        assert db_load(path).records[0].onsets_beats.times.tolist() == [
            0.0, 0.5, 1.5]

    def test_bytes_match_per_element_float_conversion(self, tmp_path):
        times = wide_range_times()
        assert str(times[np.flatnonzero(times == 0)[0]]) == "-0.0"
        db = Database(records=(record("w", times, title="Wide"),
                               record("s", [0, 1])))
        path = tmp_path / "db.json"
        db_save(db, path)
        doc = [{"id": rec.id, "title": rec.title,
                "onsets_beats": [float(t) for t in rec.onsets_beats.times]}
               for rec in db.records]
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_unwritable_path(self, tmp_path):
        db = Database(records=(record("s", [0, 1]),))
        with pytest.raises(OSError):
            db_save(db, tmp_path / "missing-dir" / "db.json")

    def test_failed_write_keeps_old_database(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        db_save(Database(records=(record("old", [0, 1]),)), path)
        before = path.read_bytes()

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('[\n  {"id": "new"')
            raise OSError("No space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="No space left"):
            db_save(Database(records=(record("new", [0, 2]),)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
record_like = st.fixed_dictionaries({
    "id": st.text(max_size=3) | st.integers(),
    "title": st.text(max_size=3),
    "onsets_beats": st.lists(st.floats() | st.integers() | st.booleans(),
                             max_size=6) | json_values,
})


class TestDbLoadFuzz:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "db.json"

    @settings(max_examples=200, deadline=None)
    @given(doc=json_values | st.lists(record_like | json_values, max_size=4))
    # an integer beyond the float range
    @example(doc=[{"id": "s", "title": "S", "onsets_beats": [0, 10 ** 400]}])
    def test_loads_or_raises_database_error(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            db = db_load(path)
        except DatabaseError as exc:
            assert str(exc).count("record #") <= 1
            return
        assert len(db) == len(doc)
