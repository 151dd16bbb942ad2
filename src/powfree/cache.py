"""On-disk cache of count series.

One JSON record per line, self-describing (k, num, den, strict, tail_max,
method, counts as decimal strings).  Writes replace the whole file via
write-temp-then-rename, so concurrent readers always see a complete file;
writers hold an exclusive flock on the sidecar file <cache>.lock from read
to rename, so concurrent writers do not drop each other's records.  One
record is kept per key, the one with the longest counts.  get and put
validate only the records of their key, and put writes the other keys'
lines back as they were read; entries validates every record.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .counting import CountSeries
from .words import Threshold

__all__ = ["CountCache"]

Key = tuple[int, int, int, bool, int | None]
_KEY_FIELDS = ("k", "num", "den", "strict", "tail_max")


def _log():
    """This module's logger; logging is imported only when something is logged."""
    import logging

    return logging.getLogger(__name__)


def _key(k: int, t: Threshold, tail_max: int | None) -> Key:
    return (k, t.num, t.den, t.strict, tail_max)


def _sort_key(key: Key):
    k, num, den, strict, tail_max = key
    return (k, num, den, strict, tail_max is not None, tail_max or 0)


class CountCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _load(self, only: Key | None = None,
              others: list[str] | None = None) -> dict[Key, CountSeries]:
        """Parse the records; given only, validate just those whose raw key fields
        equal it (to_record writes thresholds in lowest terms), and append the
        other parsed lines, newline-terminated, to others when it is given."""
        entries: dict[Key, CountSeries] = {}
        if not self.path.exists():
            return entries
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if only is not None and tuple(record[f] for f in _KEY_FIELDS) != only:
                        if others is not None:
                            others.append(line if line.endswith("\n") else line + "\n")
                        continue
                    series = CountSeries.from_record(record)
                except (ValueError, KeyError, TypeError) as exc:
                    _log().warning("skipping corrupt cache record %s:%d (%s)",
                                   self.path, lineno, exc)
                    continue
                key = _key(series.k, series.threshold, series.tail_max)
                kept = entries.get(key)
                if kept is None or series.max_length > kept.max_length:
                    entries[key] = series
        return entries

    def get(self, k: int, t: Threshold, tail_max: int | None = None) -> CountSeries | None:
        """Longest stored series for the key, or None."""
        key = _key(k, t, tail_max)
        return self._load(only=key).get(key)

    def put(self, series: CountSeries) -> None:
        """Store a series; an existing longer series for the same key wins."""
        key = _key(series.k, series.threshold, series.tail_max)
        with self._write_lock():
            lines: list[str] = []
            kept = self._load(only=key, others=lines).get(key)
            if kept is None or series.max_length > kept.max_length:
                kept = series
            self._write(lines + [json.dumps(kept.to_record()) + "\n"])

    def entries(self) -> list[CountSeries]:
        return sorted(self._load().values(),
                      key=lambda s: _sort_key(_key(s.k, s.threshold, s.tail_max)))

    def clear(self) -> None:
        with self._write_lock():
            if self.path.exists():
                self.path.unlink()

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

    def _write(self, lines: list[str]) -> None:
        # Imported here: runs that store nothing skip tempfile's imports (shutil, random, ...).
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
