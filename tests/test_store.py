import json

import numpy as np
import pytest

from humsearch.peaks import OnsetSequence
from humsearch.store import (
    Database,
    DatabaseError,
    SongRecord,
    db_load,
    db_save,
)


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
        with pytest.raises(DatabaseError, match="non-increasing onsets"):
            db_load(path)

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
        with pytest.raises(DatabaseError, match=r"record #1 \('bad'\)"):
            db_load(path)

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
