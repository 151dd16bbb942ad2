"""On-disk cache of count series.

One JSON record per line, self-describing (k, num, den, strict, tail_max,
method, counts as decimal strings).  Writes replace the whole file via
write-temp-then-rename, so concurrent readers always see a complete file;
writers hold an exclusive flock on the sidecar file <cache>.lock from read
to rename, so concurrent writers do not drop each other's records.  One
record is kept per key, the one with the longest counts.  get and put
validate only the records of their key, and put copies the other keys'
lines into the new file as it reads them, so neither holds more than one
line and the kept record.  entries validates every record as get does,
without converting its counts, and keeps one CacheEntry, without counts, per
key.  A missing file is an empty cache, and a line that is not UTF-8 is a
corrupt record.

A record is written with its key fields first, so get and put tell another
key's line by its written head (_head) without parsing it.  A line whose
head is not in that form is parsed as JSON and classified by its fields.
"""

from __future__ import annotations

import fcntl
import io
import json
import os
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from .counting import CountSeries, _record_fields
from .words import Threshold

__all__ = ["CacheEntry", "CountCache"]

Key = tuple[int, int, int, bool, int | None]
_KEY_FIELDS = ("k", "num", "den", "strict", "tail_max")


def _head(texts) -> str:
    """The start of a written record whose key fields read texts, spaced as json.dumps
    spaces them: '{"k": 3, "num": 2, "den": 1, "strict": false, "tail_max": null, '."""
    return "{" + "".join(f'"{f}": {text}, ' for f, text in zip(_KEY_FIELDS, texts))


# The head of any key, with each number written as json.dumps writes an int.
_INT = "(?:0|-?[1-9][0-9]*)"
_ANY_HEAD = re.compile(_head((_INT, _INT, _INT, "(?:true|false)", f"(?:null|{_INT})")))


def _log():
    """This module's logger; logging is imported only when something is logged."""
    import logging

    return logging.getLogger(__name__)


def _utf8(line: str) -> None:
    """A ValueError if line, read with errors="surrogateescape", had bytes that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("line is not UTF-8") from None


def _key(k: int, t: Threshold, tail_max: int | None) -> Key:
    return (k, t.num, t.den, t.strict, tail_max)


def _sort_key(key: Key):
    k, num, den, strict, tail_max = key
    return (k, num, den, strict, tail_max is not None, tail_max or 0)


def _line(series: CountSeries) -> str:
    """The written record of a series: its key's head, then its other fields."""
    record = series.to_record()
    key = tuple(record.pop(f) for f in _KEY_FIELDS)
    return _head(map(json.dumps, key)) + json.dumps(record)[1:] + "\n"


def _longest(records: Iterable[CountSeries]) -> CountSeries | None:
    """The longest of one key's records; the first of equal length wins."""
    kept = None
    for series in records:
        if kept is None or series.max_length > kept.max_length:
            kept = series
    return kept


# A key's longest record as entries lists it: its fields without the counts.  A
# named tuple, not a words._Value: entries builds one per key, ten times faster.
CacheEntry = namedtuple("CacheEntry", "k threshold tail_max method max_length")


class CountCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _records(self, only: Key | None = None, others: io.TextIOBase | None = None,
                 read=None) -> Iterator:
        """Yield read(record), by default the CountSeries, of the valid records
        in file order; given only, validate just those whose raw key fields
        equal it (to_record writes thresholds in lowest terms), and write the
        other keys' lines, newline-terminated, to others when it is given.  A
        missing file reads as an empty cache, also when a cache clear removes it
        after the caller looked.

        A line with another key's head is passed over unparsed, however its
        tail reads; only the lines of that key, or entries, report a bad tail.
        A line that is not UTF-8 is reported and skipped by every reader.
        """
        own = None if only is None else _head(map(json.dumps, only))
        read = read or CountSeries.from_record
        try:
            # Bytes that are not UTF-8 are read as lone surrogates, which do not encode.
            fh = open(self.path, encoding="utf-8", errors="surrogateescape")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                other = (own is not None and not line.startswith(own)
                         and _ANY_HEAD.match(line) is not None)
                try:
                    if not line.isascii():
                        _utf8(line)
                    if not other:
                        record = json.loads(line)
                        other = only is not None and tuple(record[f] for f in _KEY_FIELDS) != only
                    if not other:
                        value = read(record)
                except (ValueError, KeyError, TypeError) as exc:
                    _log().warning("skipping corrupt cache record %s:%d (%s)",
                                   self.path, lineno, exc)
                    continue
                if not other:
                    yield value
                elif others is not None:
                    others.write(line if line.endswith("\n") else line + "\n")

    def get(self, k: int, t: Threshold, tail_max: int | None = None) -> CountSeries | None:
        """Longest stored series for the key, or None."""
        return _longest(self._records(only=_key(k, t, tail_max)))

    def put(self, series: CountSeries) -> None:
        """Store a series; an existing longer series for the same key wins."""
        key = _key(series.k, series.threshold, series.tail_max)
        with self._write_lock(), self._replacing() as out:
            kept = _longest(self._records(only=key, others=out))
            if kept is None or series.max_length > kept.max_length:
                kept = series
            out.write(_line(kept))

    def entries(self) -> list[CacheEntry]:
        """Every key's longest valid record, without its counts, in key order.

        Each record is checked as get checks it, but its counts stay strings.
        """
        kept: dict[Key, CacheEntry] = {}
        for k, num, den, strict, tail_max, method, counts in self._records(read=_record_fields):
            key = (k, num, den, strict, tail_max)
            if key not in kept or len(counts) - 1 > kept[key].max_length:
                kept[key] = CacheEntry(k, Threshold(num, den, strict), tail_max, method,
                                       len(counts) - 1)
        return [kept[key] for key in sorted(kept, key=_sort_key)]

    def clear(self) -> None:
        with self._write_lock():
            self.path.unlink(missing_ok=True)

    @contextmanager
    def _write_lock(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    @contextmanager
    def _replacing(self):
        """A new file that replaces the cache file if the block completes."""
        # Imported here: runs that store nothing skip tempfile's imports (shutil, random, ...).
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
