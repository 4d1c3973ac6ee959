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

import numpy as np

from .peaks import OnsetSequence

__all__ = ["SongRecord", "Database", "DatabaseError", "db_load", "db_save",
           "is_number_array"]


class DatabaseError(ValueError):
    """The database document violates the format or an invariant."""


@dataclass(frozen=True)
class SongRecord:
    id: str
    title: str
    onsets_beats: OnsetSequence

    def __post_init__(self):
        if not self.id:
            raise DatabaseError("record id must be non-empty")
        if self.onsets_beats.unit != "beats":
            raise DatabaseError(f"record {self.id!r}: onsets must be in beats")
        if len(self.onsets_beats) < 2:
            raise DatabaseError(
                f"record {self.id!r}: needs at least 2 onsets")


@dataclass(frozen=True)
class Database:
    records: tuple[SongRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise DatabaseError(f"duplicate id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)


def is_number_array(obj) -> bool:
    """Whether a parsed JSON value is an array of numbers.  JSON booleans
    are not numbers, although Python's ``bool`` subclasses ``int``."""
    return isinstance(obj, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)


def _parse_record(obj, index: int) -> SongRecord:
    where = f"record #{index}"
    if not isinstance(obj, dict):
        raise DatabaseError(f"{where}: expected an object")
    for key in ("id", "title", "onsets_beats"):
        if key not in obj:
            raise DatabaseError(f"{where}: missing key {key!r}")
    song_id = obj["id"]
    title = obj["title"]
    onsets = obj["onsets_beats"]
    if not isinstance(song_id, str) or not isinstance(title, str):
        raise DatabaseError(f"{where}: id and title must be strings")
    if not is_number_array(onsets):
        raise DatabaseError(f"{where} ({song_id!r}): onsets_beats must be "
                            "an array of numbers")
    times = np.asarray(onsets, dtype=np.float64)
    if len(times) < 2:
        raise DatabaseError(f"{where} ({song_id!r}): needs at least 2 onsets")
    if not np.all(np.diff(times) > 0):
        raise DatabaseError(f"{where} ({song_id!r}): non-increasing onsets")
    try:
        onsets_beats = OnsetSequence(times=times, unit="beats")
    except ValueError as exc:
        raise DatabaseError(f"{where} ({song_id!r}): {exc}") from exc
    return SongRecord(id=song_id, title=title, onsets_beats=onsets_beats)


def db_load(path) -> Database:
    """Load and fully validate a song database."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatabaseError(f"parse error: {exc}") from exc
    if not isinstance(doc, list):
        raise DatabaseError("top-level document must be an array")
    return Database(records=tuple(
        _parse_record(obj, i) for i, obj in enumerate(doc)))


def db_save(db: Database, path) -> None:
    """Write the database as pretty-printed JSON.

    The document is written to a temporary file beside ``path``, which
    then replaces ``path`` in one step, so a write that fails part-way
    leaves the old database as it was.
    """
    doc = [
        {
            "id": rec.id,
            "title": rec.title,
            "onsets_beats": [float(t) for t in rec.onsets_beats.times],
        }
        for rec in db.records
    ]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
