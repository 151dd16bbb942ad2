"""Count cache: round trips, longest-prefix rule, corruption handling."""

import json
import logging
import multiprocessing
import os

import pytest

from powfree import CountCache, Threshold, count_free


@pytest.fixture
def cache(tmp_path):
    return CountCache(tmp_path / "counts.jsonl")


def test_roundtrip(cache):
    s = count_free(3, Threshold(2), 7, "canonical")
    cache.put(s)
    got = cache.get(3, Threshold(2))
    assert got == s


def test_empty_cache(cache):
    assert cache.get(3, Threshold(2)) is None
    assert cache.entries() == []


def test_longest_series_wins(cache):
    t = Threshold(2)
    long = count_free(3, t, 10, "canonical")
    short = count_free(3, t, 6, "canonical")
    cache.put(long)
    cache.put(short)
    assert cache.get(3, t).max_length == 10
    assert len(cache.entries()) == 1
    cache.clear()
    cache.put(short)
    cache.put(long)
    assert cache.get(3, t).max_length == 10


def test_keys_are_disjoint(cache):
    from powfree import count_tail_restricted
    t = Threshold(2)
    cache.put(count_free(3, t, 5, "canonical"))
    cache.put(count_free(3, Threshold(2, 1, True), 5, "canonical"))
    cache.put(count_tail_restricted(3, t, 2, 5, "canonical"))
    cache.put(count_free(2, t, 5, "canonical"))
    assert len(cache.entries()) == 4
    assert cache.get(3, t).tail_max is None
    assert cache.get(3, t, tail_max=2).tail_max == 2
    assert cache.get(3, t, tail_max=1) is None


def test_corrupt_records_reported_and_skipped(cache, caplog):
    good = count_free(3, Threshold(2), 5, "canonical")
    cache.put(good)
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"k": 2, "num": 2}) + "\n")  # missing fields
        bad = good.to_record()
        bad["counts"] = ["1", "-3"]
        fh.write(json.dumps(bad) + "\n")
    with caplog.at_level(logging.WARNING):
        got = cache.get(3, Threshold(2))
    assert got == good
    assert sum("corrupt" in rec.message for rec in caplog.records) == 3


def test_get_validates_only_the_records_of_its_key(cache, monkeypatch):
    from powfree import CountSeries, count_tail_restricted
    t = Threshold(2)
    for k in (2, 3, 4):
        cache.put(count_free(k, t, 5, "canonical"))
    cache.put(count_free(3, Threshold(2, 1, True), 5, "canonical"))
    cache.put(count_tail_restricted(3, t, 1, 5, "canonical"))
    validated = []
    from_record = CountSeries.from_record

    def counted(record):
        validated.append((record["k"], record["strict"], record["tail_max"]))
        return from_record(record)

    monkeypatch.setattr(CountSeries, "from_record", staticmethod(counted))
    assert cache.get(3, t) == count_free(3, t, 5, "canonical")
    assert validated == [(3, False, None)]
    assert cache.get(3, t, tail_max=2) is None
    assert validated == [(3, False, None)]
    validated.clear()
    assert len(cache.entries()) == 5
    assert len(validated) == 5


def test_put_validates_only_the_records_of_its_key(cache, monkeypatch, caplog):
    from powfree import CountSeries
    t = Threshold(2)
    for k in (2, 3, 4):
        cache.put(count_free(k, t, 5, "canonical"))
    bad = count_free(5, t, 5, "canonical").to_record()
    bad["counts"] = ["1", "-3"]
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad))  # no final newline
    others = [line for line in cache.path.read_text().splitlines() if '"k": 3,' not in line]
    validated = []
    from_record = CountSeries.from_record

    def counted(record):
        validated.append(record["k"])
        return from_record(record)

    monkeypatch.setattr(CountSeries, "from_record", staticmethod(counted))
    cache.put(count_free(3, t, 7, "canonical"))
    assert validated == [3]
    # The other keys' lines are kept as they were, a bad body included ...
    lines = cache.path.read_text().splitlines()
    assert lines[:-1] == others
    monkeypatch.undo()
    # ... and readers still skip that body with a warning.
    with caplog.at_level(logging.WARNING):
        assert [s.k for s in cache.entries()] == [2, 3, 4]
    assert sum("corrupt" in rec.message for rec in caplog.records) == 1
    assert cache.get(3, t).max_length == 7


def test_write_is_atomic_replace(cache):
    cache.put(count_free(2, Threshold(2), 4, "canonical"))
    leftovers = [p for p in os.listdir(cache.path.parent) if p.endswith(".tmp")]
    assert leftovers == []
    # every line of the file parses on its own
    with open(cache.path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)


def _put_many(path, ks, start):
    cache = CountCache(path)
    start.wait(timeout=60)
    for k in ks:
        cache.put(count_free(k, Threshold(2), 3, "canonical"))


def test_concurrent_writers_keep_every_record(cache):
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(2)
    writers = [ctx.Process(target=_put_many, args=(str(cache.path), range(lo, lo + 25), start))
               for lo in (1, 26)]
    for p in writers:
        p.start()
    for p in writers:
        p.join(timeout=60)
    assert [p.exitcode for p in writers] == [0, 0]
    assert sorted(s.k for s in cache.entries()) == list(range(1, 51))
