import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humsearch import cli, store
from humsearch.peaks import OnsetSequence
from humsearch.store import (
    Database,
    SongRecord,
    db_load,
    db_save,
    parse_record,
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
        with pytest.raises(ValueError, match="onsets must be in beats"):
            SongRecord(id="s", title="S",
                       onsets_beats=OnsetSequence(times=[0.0, 1.0],
                                                  unit="seconds"))

    def test_requires_two_onsets(self):
        with pytest.raises(ValueError, match="needs at least 2 onsets"):
            record("s", [0.0])

    def test_requires_id(self):
        with pytest.raises(ValueError, match="id must be non-empty"):
            record("", [0.0, 1.0])


class TestDatabase:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate id"):
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
        with pytest.raises(ValueError) as info:
            db_load(path)
        assert str(info.value) == (
            "record #0 ('s1'): onset times must be strictly increasing")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "s1", "title": "One", "onsets_beats": [0, 1]},
            {"id": "s1", "title": "Two", "onsets_beats": [0, 2]},
        ]))
        with pytest.raises(ValueError, match="duplicate id"):
            db_load(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[{")
        with pytest.raises(ValueError) as info:
            db_load(path)
        assert str(info.value).startswith(f"parse error in {path}: ")

    def test_nested_too_deeply_to_decode(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="parse error"):
            db_load(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="must be an array"):
            db_load(path)

    def test_error_reports_record_context(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "ok", "title": "OK", "onsets_beats": [0, 1]},
            {"id": "bad", "title": "Bad", "onsets_beats": [5]},
        ]))
        with pytest.raises(ValueError) as info:
            db_load(path)
        assert str(info.value) == "record #1 ('bad'): needs at least 2 onsets"

    def test_empty_id(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps([
            {"id": "", "title": "One", "onsets_beats": [0, 1]},
        ]))
        with pytest.raises(ValueError) as info:
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

        def open_with_failing_write(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            write = fh.write

            def write_then_fail(text):
                write(text[:20])
                raise OSError("No space left on device")

            fh.write = write_then_fail
            return fh

        monkeypatch.setattr(store, "open", open_with_failing_write,
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            db_save(Database(records=(record("new", [0, 2]),)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]


# JSON string content the encoder must escape or pass through: quotes,
# backslashes, control characters, non-ASCII and astral characters
awkward_text = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f3b5')
    | st.characters(exclude_categories=("Cs",)), max_size=6)
# onsets drawn around the floats whose repr is easy to get wrong
awkward_onsets = st.lists(
    st.sampled_from([-0.0, 5e-324, 1e-07, 0.1, 1e16])
    | st.floats(allow_nan=False, allow_infinity=False),
    min_size=2, max_size=6, unique=True).map(sorted)


class TestDbSaveLayout:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("layout") / "db.json"

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(
        st.tuples(awkward_text.filter(bool), awkward_text, awkward_onsets),
        max_size=5, unique_by=lambda row: row[0]))
    @example(rows=[])
    def test_bytes_equal_the_json_encoder(self, path, rows):
        db = Database(records=tuple(
            SongRecord(id=song_id, title=title, onsets_beats=OnsetSequence(
                times=np.asarray(onsets), unit="beats"))
            for song_id, title, onsets in rows))
        db_save(db, path)
        doc = [{"id": rec.id, "title": rec.title,
                "onsets_beats": rec.onsets_beats.times.tolist()}
               for rec in db.records]
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


def is_number_array_oracle(obj):
    """The element-wise check that ``store.is_number_array`` replaced."""
    return isinstance(obj, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)


def onset_check_oracle(times):
    """The two-scan check that ``OnsetSequence`` replaced: every time
    finite, then every neighbour pair rising."""
    try:
        times = np.asarray(times, dtype=np.float64)
    except OverflowError:
        raise ValueError("onset times must be finite") from None
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(times)):
        raise ValueError("onset times must be finite")
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("onset times must be strictly increasing")


def record_check_oracle(onsets):
    """What record #0 ``'s'`` with these onsets gave before: the oracles
    above in turn, then the two-onset minimum."""
    if not is_number_array_oracle(onsets):
        raise ValueError("onsets_beats must be an array of numbers")
    onset_check_oracle(onsets)
    if len(onsets) < 2:
        raise ValueError("needs at least 2 onsets")


def outcome(check, *args):
    """``None`` when ``check`` accepts, else its exception type and text."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def bad_at(position, value):
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    times[position] = value
    return times


CHECK_CASES = {
    **{f"{name} at {where}": bad_at(position, value)
       for name, value in (("NaN", np.nan), ("+inf", np.inf),
                           ("-inf", -np.inf))
       for where, position in (("first", 0), ("middle", 2), ("last", -1))},
    "equal neighbours": [0.0, 1.0, 1.0, 2.0],
    "decreasing neighbours": [0.0, 2.0, 1.0, 3.0],
    "no onsets": [],
    "one onset": [1.0],
    "2-D": [[0.0, 1.0], [2.0, 3.0]],
    "bool item": [0, True, 2],
    "integer beyond the float range": [0, 10 ** 400],
    "valid": [0, 0.5, 2],
}


class TestRecordChecksMatchTheOracles:
    @pytest.mark.parametrize("onsets", CHECK_CASES.values(), ids=CHECK_CASES)
    def test_onset_sequence(self, onsets):
        assert (outcome(OnsetSequence, onsets)
                == outcome(onset_check_oracle, onsets))

    @settings(max_examples=300, deadline=None)
    @given(onsets=st.lists(st.floats() | st.integers() | st.booleans(),
                           max_size=6).map(sorted)
           | st.lists(st.floats() | st.integers(), max_size=6))
    def test_onset_sequence_fuzz(self, onsets):
        assert (outcome(OnsetSequence, onsets)
                == outcome(onset_check_oracle, onsets))
        assert store.is_number_array(onsets) == is_number_array_oracle(onsets)

    @pytest.mark.parametrize("onsets", CHECK_CASES.values(), ids=CHECK_CASES)
    def test_parse_record_and_db_validate(self, onsets, tmp_path, capsys):
        expected = outcome(record_check_oracle, onsets)
        if expected is not None:
            expected = (ValueError, f"record #0 ('s'): {expected[1]}")
        obj = {"id": "s", "title": "S", "onsets_beats": onsets}
        assert outcome(parse_record, obj, 0) == expected
        path = tmp_path / "db.json"
        path.write_text(json.dumps([obj]))
        code = cli.main(["db", "validate", "--db", str(path)])
        if expected is None:
            assert (code, capsys.readouterr().err) == (0, "")
        else:
            assert (code, capsys.readouterr().err) == (
                2, f"error: {expected[1]}\n")


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
        except ValueError as exc:
            assert str(exc).count("record #") <= 1
            return
        assert len(db) == len(doc)
