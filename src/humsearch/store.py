"""Song onset database persistence.

The database is a single UTF-8 JSON document: a top-level array of
``{"id": str, "title": str, "onsets_beats": [numbers]}`` objects.  Onsets
are stored in beat units, so a record is tempo-free; the affine search in
correlative matching recovers the tempo at query time.  Loading never
silently repairs a violation - every invariant failure is an error.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .peaks import OnsetSequence

__all__ = ["SongRecord", "Database", "db_load", "db_save", "is_number_array",
           "parse_record"]


@dataclass(frozen=True)
class SongRecord:
    id: str
    title: str
    onsets_beats: OnsetSequence

    def __post_init__(self):
        if not self.id:
            raise ValueError("id must be non-empty")
        if self.onsets_beats.unit != "beats":
            raise ValueError("onsets must be in beats")
        if len(self.onsets_beats) < 2:
            raise ValueError("needs at least 2 onsets")


@dataclass(frozen=True)
class Database:
    records: tuple[SongRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise ValueError(f"duplicate id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)


def is_number_array(obj) -> bool:
    """Whether a parsed JSON value is an array of numbers.  The decoder
    makes no subclasses, so the element types are compared exactly, which
    also keeps out JSON booleans (Python's ``bool`` subclasses ``int``)."""
    return isinstance(obj, list) and {type(x) for x in obj} <= {int, float}


def parse_record(obj, index: int) -> SongRecord:
    """Check and build record ``index`` of a database from parsed JSON."""
    if not isinstance(obj, dict):
        raise ValueError(f"record #{index}: expected an object")
    for key in ("id", "title", "onsets_beats"):
        if key not in obj:
            raise ValueError(f"record #{index}: missing key {key!r}")
    song_id = obj["id"]
    title = obj["title"]
    onsets = obj["onsets_beats"]
    if not isinstance(song_id, str) or not isinstance(title, str):
        raise ValueError(f"record #{index}: id and title must be strings")
    try:
        song_id.encode()  # db_save writes UTF-8, which has no surrogates
        title.encode()
        if not is_number_array(onsets):
            raise ValueError("onsets_beats must be an array of numbers")
        return SongRecord(id=song_id, title=title, onsets_beats=OnsetSequence(
            times=onsets, unit="beats"))
    except UnicodeEncodeError:
        raise ValueError(f"record #{index} ({song_id!r}): id and title "
                         "must be valid UTF-8") from None
    except ValueError as exc:
        raise ValueError(f"record #{index} ({song_id!r}): {exc}") from exc


def db_load(path) -> Database:
    """Load and fully validate a song database."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"parse error in {path}: {exc}") from exc
    if not isinstance(doc, list):
        raise ValueError("top-level document must be an array")
    return Database(records=tuple(
        parse_record(obj, i) for i, obj in enumerate(doc)))


def db_save(db: Database, path) -> None:
    """Write the database in the layout of ``json.dump(doc, fh, indent=2,
    ensure_ascii=False)`` followed by a newline.

    The document is built as one string: each id and title is encoded by
    ``json.dumps`` and each onset by ``float.__repr__``, as the encoder
    does for a finite float.  It is written to a temporary file beside
    ``path``, which then replaces ``path`` in one step, so a write that
    fails part-way leaves the old database as it was.
    """
    entries = []
    for rec in db.records:
        onsets = ",\n      ".join(
            map(float.__repr__, rec.onsets_beats.times.tolist()))
        entries.append(
            f'  {{\n    "id": {json.dumps(rec.id, ensure_ascii=False)},\n'
            f'    "title": {json.dumps(rec.title, ensure_ascii=False)},\n'
            f'    "onsets_beats": [\n      {onsets}\n    ]\n  }}')
    text = "[\n" + ",\n".join(entries) + "\n]\n" if entries else "[]\n"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
