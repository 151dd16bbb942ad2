"""On-disk cache of count series.

One JSON record per line, self-describing (k, num, den, strict, tail_max,
method, counts as decimal strings).  Writes replace the whole file via
write-temp-then-rename, so concurrent readers always see a complete file;
writers hold an exclusive flock on the sidecar file <cache>.lock from read
to rename, so concurrent writers do not drop each other's records.  One
record is kept per key, the one with the longest counts.  get and put
validate the records of their key, and put copies the other keys' lines
into the new file as it reads them, so neither holds more than one line and
the kept record.  entries reads every record with the same
CountSeries.from_record as get and keeps one key tuple and one int (the
longest length, not the engine) per key; it builds a key's CacheEntry only
when its iterator hands that entry out.  A stored threshold is in lowest
terms: get and put find a key by its written fields, so from_record refuses
another spelling (4/2) as corrupt rather than let entries list a record that
get never serves, and put drops the line.  A missing file is an empty cache,
and a line that is not UTF-8 is a corrupt record.  An OSError of the cache
file (one that cannot be opened, created, locked or written) is raised as a
ValidationError that names the file; a path that is a directory, before that.

A record is the json.dumps of CountSeries.to_record, key fields first: get and
put tell another key's line by its head (_head) without parsing it.  A line
whose head is not in that form is parsed as JSON and classified by its fields,
and put copies it only if from_record accepts it, whatever the order of its
fields: another key's line with a mistyped field is dropped, not kept for good.
"""

from __future__ import annotations

import fcntl
import functools
import io
import json
import math
import os
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from .counting import CountSeries, _log
from .errors import ValidationError
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
_ANY_HEAD = re.compile(_head((_INT, f"({_INT})", f"({_INT})", "(?:true|false)",
                              f"(?:null|{_INT})")))


def _utf8(line: str) -> None:
    """A ValueError if line, read with errors="surrogateescape", had bytes that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("line is not UTF-8") from None


def _key(k: int, t: Threshold, tail_max: int | None) -> Key:
    return (k, t.num, t.den, t.strict, tail_max)


def _longest(records: Iterable[CountSeries]) -> CountSeries | None:
    """The longest of one key's records; the first of equal length wins."""
    kept = None
    for series in records:
        if kept is None or series.max_length > kept.max_length:
            kept = series
    return kept


# A key's longest record as entries lists it: its key and length, without the engine or
# the counts.  A named tuple, not a words._Value: entries builds one per key, ten times faster.
CacheEntry = namedtuple("CacheEntry", "k threshold tail_max max_length")


def _listed(kept: dict[tuple, int]) -> Iterator[CacheEntry]:
    """The CacheEntry of each key of an entries index, in key order, built as it is asked for."""
    for key in sorted(kept):
        k, num, den, strict, tail_max = key
        yield CacheEntry(k, Threshold(num, den, strict), tail_max or None, kept[key])


def _usage_errors(method):
    """method, refusing a directory before it touches any file, an OSError as a usage error."""
    @functools.wraps(method)
    def wrapped(self, *args, **kwargs):
        if os.path.isdir(self.path):
            raise ValidationError(f"cache path {self.path} is a directory, not a cache file")
        try:
            return method(self, *args, **kwargs)
        except OSError as exc:
            raise ValidationError(f"cannot use cache file {self.path}: "
                                  f"{exc.strerror or exc}") from None
    return wrapped


class CountCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _records(self, only: Key | None = None,
                 others: io.TextIOBase | None = None) -> Iterator[CountSeries]:
        """Yield the CountSeries of the valid records in file order; given only,
        validate just those whose raw key fields equal it (from_record reads
        only thresholds in lowest terms), and write the other keys' lines,
        newline-terminated, to others when it is given.  A missing file reads
        as an empty cache, also when a cache clear removes it after the caller
        looked.

        A line with another key's head in lowest terms is passed over unparsed,
        however its tail reads; only the lines of that key, or entries, report a
        bad tail.  Given others, every other key's line that is parsed (one
        without a written head, or with a head not in lowest terms) goes to
        from_record: it is copied as read if valid, and reported and dropped if
        not.  A line that is not UTF-8 is reported and skipped by every reader.
        """
        own = None if only is None else _head(map(json.dumps, only))
        try:
            # Bytes that are not UTF-8 are read as lone surrogates, which do not encode.
            fh = open(self.path, encoding="utf-8", errors="surrogateescape")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                head = None if own is None or line.startswith(own) else _ANY_HEAD.match(line)
                # put parses a head not in lowest terms, which from_record refuses, to drop it.
                other = head is not None and (others is None
                                              or math.gcd(*map(int, head.groups())) == 1)
                try:
                    if not line.isascii():
                        _utf8(line)
                    if not other:
                        record = json.loads(line)
                        other = (only is not None
                                 and tuple(record[f] for f in _KEY_FIELDS) != only)
                        if not other or others is not None:
                            series = CountSeries.from_record(record)
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    _log(__name__).warning("skipping corrupt cache record %s:%d (%s)",
                                           self.path, lineno, exc)
                    continue
                if not other:
                    yield series
                elif others is not None:
                    others.write(line if line.endswith("\n") else line + "\n")

    @_usage_errors
    def get(self, k: int, t: Threshold, tail_max: int | None = None) -> CountSeries | None:
        """Longest stored series for the key, or None."""
        return _longest(self._records(only=_key(k, t, tail_max)))

    @_usage_errors
    def put(self, series: CountSeries) -> None:
        """Store a series; an existing longer series for the same key wins."""
        key = _key(series.k, series.threshold, series.tail_max)
        with self._write_lock(), self._replacing() as out:
            kept = _longest(self._records(only=key, others=out))
            if kept is None or series.max_length > kept.max_length:
                kept = series
            out.write(json.dumps(kept.to_record()) + "\n")

    @_usage_errors
    def entries(self) -> Iterator[CacheEntry]:
        """Every key's longest valid record, without its counts, in key order.

        Each record is read with CountSeries.from_record, as get reads it, and
        only its key and length are kept.  The whole file is read before
        entries returns.
        """
        # One int per key, its longest length, under (k, num, den, strict, tail_max or 0):
        # a stored tail_max is at least 1, so 0 stands for none, and keys sort as listed.
        kept: dict[tuple, int] = {}
        for series in self._records():
            t, length = series.threshold, series.max_length
            key = (series.k, t.num, t.den, t.strict, series.tail_max or 0)
            if length > kept.get(key, -1):
                kept[key] = length
        return _listed(kept)

    @_usage_errors
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
