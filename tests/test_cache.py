"""Count cache: round trips, longest-prefix rule, corruption handling."""

import errno
import itertools
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import powfree
from powfree import (CountCache, CountSeries, Threshold, ValidationError, count_free,
                     count_tail_restricted)
from powfree import cache as cache_module
from powfree.cache import CacheEntry


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
    assert list(cache.entries()) == []


def test_longest_series_wins(cache):
    t = Threshold(2)
    long = count_free(3, t, 10, "canonical")
    short = count_free(3, t, 6, "canonical")
    cache.put(long)
    cache.put(short)
    assert cache.get(3, t).max_length == 10
    assert len(list(cache.entries())) == 1
    cache.clear()
    cache.put(short)
    cache.put(long)
    assert cache.get(3, t).max_length == 10


@pytest.mark.parametrize("call", ["get", "put", "entries", "clear"])
def test_a_directory_is_refused_before_any_file_is_made(tmp_path, call):
    path = tmp_path / "counts"
    path.mkdir()
    args = {"get": (3, Threshold(2)), "put": (count_free(3, Threshold(2), 3),)}.get(call, ())
    with pytest.raises(ValidationError) as info:
        getattr(CountCache(path), call)(*args)
    assert str(info.value) == f"cache path {path} is a directory, not a cache file"
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []


def test_a_record_is_written_key_fields_first():
    # put writes json.dumps of to_record; get and put pass over another key's line by its head.
    for k, t, tail_max, counts, method in itertools.product(
            (1, 3, 20, 200), (Threshold(2), Threshold(3, 2), Threshold(7, 5, True)),
            (None, 1, 2, 5), ((1,), (1, 3), (1, 20, 380, 10**30)), ("naive", "canonical")):
        line = json.dumps(CountSeries(k, t, counts, method, tail_max).to_record())
        key = cache_module._key(k, t, tail_max)
        assert line.startswith(cache_module._head(map(json.dumps, key)))
        assert cache_module._ANY_HEAD.match(line)


def test_keys_are_disjoint(cache):
    from powfree import count_tail_restricted
    t = Threshold(2)
    cache.put(count_free(3, t, 5, "canonical"))
    cache.put(count_free(3, Threshold(2, 1, True), 5, "canonical"))
    cache.put(count_tail_restricted(3, t, 2, 5, "canonical"))
    cache.put(count_free(2, t, 5, "canonical"))
    assert len(list(cache.entries())) == 4
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
        bad["counts"] = []  # no C_0
        fh.write(json.dumps(bad) + "\n")
    with caplog.at_level(logging.WARNING):
        got = cache.get(3, Threshold(2))
    assert got == good
    assert sum("corrupt" in rec.message for rec in caplog.records) == 4


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
    # entries reads every record with the same from_record.
    validated.clear()
    assert len(list(cache.entries())) == 5
    assert sorted(k for k, _, _ in validated) == [2, 3, 3, 3, 4]


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


def test_a_written_line_is_the_records_json_dump(cache):
    s = count_tail_restricted(4, Threshold(7, 5, True), 2, 6)
    cache.put(s)
    assert cache.path.read_text() == json.dumps(s.to_record()) + "\n"
    assert cache.path.read_text().startswith(
        '{"k": 4, "num": 7, "den": 5, "strict": true, "tail_max": 2, ')


def _respaced(record):
    """The record as another writer might put it: compact, fields in reverse order."""
    return json.dumps(dict(reversed(record.items())), separators=(",", ":"))


def test_a_record_in_another_layout_is_still_served_and_kept(cache):
    t = Threshold(2)
    mine, other = count_free(3, t, 5), count_free(4, t, 5)
    cache.path.write_text(_respaced(mine.to_record()) + "\n" + _respaced(other.to_record()) + "\n")
    assert cache.get(3, t) == mine
    assert cache.get(4, t) == other
    cache.put(count_free(3, t, 4))  # shorter: the stored series wins, in the written layout
    assert cache.path.read_text() == (_respaced(other.to_record()) + "\n"
                                      + json.dumps(mine.to_record()) + "\n")


def test_lines_without_a_key_are_reported_by_get_and_dropped_by_put(cache, caplog):
    t = Threshold(2)
    cache.put(count_free(2, t, 4))
    kept = cache.path.read_text()
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
        fh.write('{"k": 3, "num": 2, "den": 1, "strict": false}\n')  # no tail_max
    with caplog.at_level(logging.WARNING):
        assert cache.get(3, t) is None
    assert sum("corrupt" in rec.message for rec in caplog.records) == 2
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        cache.put(count_free(3, t, 4))
    assert sum("corrupt" in rec.message for rec in caplog.records) == 2
    assert cache.path.read_text() == kept + json.dumps(count_free(3, t, 4).to_record()) + "\n"


def test_put_writes_other_keys_lines_back_byte_for_byte(cache):
    t = Threshold(2)
    lines = [json.dumps(count_free(k, t, 4).to_record()) + "\n" for k in (2, 4)]
    lines.insert(1, _respaced(count_free(5, t, 4).to_record()) + "\n")
    lines.append(json.dumps(count_free(6, t, 4).to_record()))  # no final newline
    cache.path.write_text("".join(lines))
    cache.put(count_free(3, t, 4))
    written = cache.path.read_text().splitlines(keepends=True)
    assert written[:-1] == lines[:-1] + [lines[-1] + "\n"]


@pytest.mark.parametrize("field,value", [
    ("k", 3.0), ("den", 1.0), ("tail_max", 0), ("counts", "12"), ("counts", ["1", "-3"]),
    ("method", "transfer-matrix"),
])
def test_a_mistyped_record_of_the_asked_key_is_skipped(cache, caplog, field, value):
    # Its key fields equal the asked key's as Python values, so it is validated and refused.
    t = Threshold(2)
    record = count_free(3, t, 5).to_record()
    record[field] = value
    cache.path.write_text(json.dumps(record) + "\n")
    with caplog.at_level(logging.WARNING):
        assert cache.get(3, t, record["tail_max"]) is None
    assert [rec.getMessage().partition(" (")[0] for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1"]


def test_another_keys_damaged_tail_is_kept_until_its_own_key_reads_it(cache, caplog):
    # Get and put read another key's line no further than its head: a damaged
    # tail is reported by a get of that line's key and by entries.
    t = Threshold(2)
    damaged = json.dumps(count_free(4, t, 5).to_record())[:-20] + "\n"
    cache.path.write_text(damaged)
    with caplog.at_level(logging.WARNING):
        assert cache.get(3, t) is None
        cache.put(count_free(3, t, 5))
    assert caplog.records == []
    assert cache.path.read_text().splitlines(keepends=True)[0] == damaged
    with caplog.at_level(logging.WARNING):
        assert cache.get(4, t) is None
        assert [s.k for s in cache.entries()] == [3]
    assert [rec.getMessage().partition(" (")[0] for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1"] * 2
    cache.put(count_free(4, t, 5))  # the put of its own key drops it
    assert [s.k for s in cache.entries()] == [3, 4]
    assert damaged not in cache.path.read_text()


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


def _opened_after_a_clear(monkeypatch, cache):
    """Make the cache module's open of the cache file find it removed, as when a
    cache clear in another process runs between a look at the file and its open."""
    real = open

    def racing(file, *args, **kwargs):
        if os.fspath(file) == os.fspath(cache.path):
            cache.path.unlink(missing_ok=True)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", racing, raising=False)


def test_a_file_removed_before_it_is_opened_reads_as_empty(cache, monkeypatch):
    t = Threshold(2)
    for reader in (lambda: cache.get(3, t), lambda: list(cache.entries())):
        cache.put(count_free(3, t, 5))
        with monkeypatch.context() as mp:
            _opened_after_a_clear(mp, cache)
            assert reader() in (None, [])
    cache.put(count_free(4, t, 5))
    with monkeypatch.context() as mp:
        _opened_after_a_clear(mp, cache)
        cache.put(count_free(3, t, 5))
    assert list(cache.entries()) == [CacheEntry(3, t, None, 5)]


def _write_records(path, records, counts=(1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204)):
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(1, records + 1):
            series = CountSeries(k, Threshold(2), counts, "canonical")
            fh.write(json.dumps(series.to_record()) + "\n")


def _put_peak(path, records):
    """Traced peak bytes of one put of a new key into a file of records keys."""
    _write_records(path, records)
    cache = CountCache(path)
    cache.put(count_free(2, Threshold(2, 1, True), 4))  # imports tempfile, fills caches
    series = count_free(3, Threshold(3, 2), 6)
    tracemalloc.start()
    try:
        cache.put(series)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_put_memory_does_not_grow_with_the_file(tmp_path):
    # The other keys' lines go to the new file as they are read, never into a list.
    small = _put_peak(tmp_path / "small.jsonl", 50)
    large = _put_peak(tmp_path / "large.jsonl", 5000)
    assert (tmp_path / "large.jsonl").stat().st_size > 800_000
    assert large - small < 50_000, (small, large)


def test_entries_keep_no_counts(cache):
    counts = tuple(10**400 + i for i in range(20))  # 8 KB of digits per record
    _write_records(cache.path, 200, counts)
    tracemalloc.start()
    try:
        listed = list(cache.entries())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [e.k for e in listed] == list(range(1, 201))
    assert listed[0] == CacheEntry(1, Threshold(2), None, 19)
    assert not any(hasattr(e, "counts") for e in listed)
    assert held < 200_000, held  # 200 records of 8 KB of digits would hold 1.6 MB


def test_entries_hold_a_small_index_of_many_keys(cache):
    # 24,000 keys: listing them holds one key tuple and one int per key, about 4.1 MB
    # traced on CPython 3.11, where a CacheEntry and its Threshold per key held 11.1 MB.
    with open(cache.path, "w", encoding="utf-8") as fh:
        for k in range(24000, 0, -1):
            series = CountSeries(k, Threshold(7, 4, k % 2 == 0), (1, k, k * (k - 1)),
                                 "canonical", None if k % 3 else 2)
            fh.write(json.dumps(series.to_record()) + "\n")
    list(cache.entries())  # fills the interpreter's caches
    tracemalloc.start()
    try:
        first = last = None
        for last in cache.entries():
            first = first or last
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == CacheEntry(1, Threshold(7, 4), None, 2)
    assert last == CacheEntry(24000, Threshold(7, 4, True), 2, 2)
    assert peak < 6_000_000, peak


def test_a_failed_write_leaves_the_file_and_no_temporary_file(cache, monkeypatch):
    t = Threshold(2)
    cache.put(count_free(3, t, 5))
    before = cache.path.read_bytes()

    def disk_full(series):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(CountSeries, "to_record", disk_full)
    with pytest.raises(ValidationError, match=os.strerror(errno.ENOSPC)):
        cache.put(count_free(4, t, 5))
    assert cache.path.read_bytes() == before
    assert sorted(p.name for p in cache.path.parent.iterdir()) == ["counts.jsonl",
                                                                    "counts.jsonl.lock"]


def test_entries_read_the_whole_file_before_returning(cache, monkeypatch):
    # A caller that times or guards the call to entries covers the file scan.
    for k in (2, 3, 4):
        cache.put(count_free(k, Threshold(2), 4))
    validated = []
    from_record = CountSeries.from_record
    monkeypatch.setattr(CountSeries, "from_record", staticmethod(
        lambda record: validated.append(record["k"]) or from_record(record)))
    listed = cache.entries()
    assert validated == [2, 3, 4]
    cache.path.unlink()
    assert [e.k for e in listed] == [2, 3, 4]


def test_entries_warn_of_and_skip_corrupt_and_mistyped_records(cache, caplog):
    good = count_free(3, Threshold(2), 5)
    mistyped = good.to_record()
    mistyped["k"] = 4.0
    empty = {**good.to_record(), "counts": []}  # no C_0
    lines = [json.dumps(good.to_record()), "{not json", json.dumps(mistyped), json.dumps(empty)]
    cache.path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING):
        assert list(cache.entries()) == [CacheEntry(3, Threshold(2), None, 5)]
    assert [rec.getMessage().partition(" (")[0] for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:{i}" for i in (2, 3, 4)]


def _record_variants():
    """to_record dicts, each changed in one field: some valid, most not."""
    good = count_free(3, Threshold(2), 4).to_record()
    changes = [
        {}, {"num": 4, "den": 2}, {"num": 2, "den": 2}, {"num": 0}, {"den": 0}, {"den": -1},
        {"k": 0}, {"k": -3}, {"k": 3.0}, {"k": True}, {"strict": 0}, {"strict": "false"},
        {"tail_max": 0}, {"tail_max": 2}, {"tail_max": 2.0}, {"method": "naive"},
        {"method": "incremental"}, {"method": "transfer-matrix"}, {"method": None},
        {"counts": "1369"}, {"counts": []}, {"counts": ["1", "03"]}, {"counts": ["1", "-3"]},
        {"counts": ["1", "３"]}, {"counts": [1, 3]}, {"counts": ["1", "3" * 5000]},
        {"counts": [""]}, {"counts": ["1", ""]}, {"counts": ["1,3"]}, {"counts": ["1", " 3"]},
    ]
    records = [{**good, **change} for change in changes]
    for field in ("k", "strict", "method", "counts"):
        records.append({f: v for f, v in good.items() if f != field})
    return records


@pytest.mark.parametrize("record", _record_variants())
def test_entries_refuse_exactly_the_records_a_get_refuses(cache, record):
    # entries lists exactly the records that from_record reads, each under its own key.
    cache.path.write_text(json.dumps(record) + "\n")
    try:
        series = CountSeries.from_record(record)
    except (ValueError, KeyError, TypeError):
        assert list(cache.entries()) == []
    else:
        assert list(cache.entries()) == [CacheEntry(series.k, series.threshold,
                                                    series.tail_max, series.max_length)]


def test_entries_warn_of_and_skip_a_threshold_not_in_lowest_terms(cache, caplog):
    # get and put find a key by its written fields, so they never serve a 4/2 record:
    # entries does not list one either, not even when it is the longest of its key.
    t = Threshold(2)
    other_terms = json.dumps({**count_free(3, t, 6).to_record(), "num": 4, "den": 2}) + "\n"
    cache.path.write_text(other_terms)
    with caplog.at_level(logging.WARNING):
        assert list(cache.entries()) == []
        assert cache.get(3, t) is None
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1 (threshold 4/2 is not in lowest terms)"]
    cache.path.write_text(other_terms + json.dumps(count_free(3, t, 4).to_record()) + "\n")
    assert list(cache.entries()) == [CacheEntry(3, t, None, 4)]


@pytest.mark.parametrize("k", [3, 5])
def test_put_drops_a_threshold_not_in_lowest_terms(cache, caplog, k):
    # No get or put ever asks for a 4/2 key, so a put, for its own k or another's, leaves
    # the line out of the file it writes once it has warned of it; later readers see none.
    t = Threshold(2)
    cache.path.write_text(json.dumps({**count_free(k, t, 6).to_record(), "num": 4, "den": 2})
                          + "\n")
    stored = count_free(3, t, 3)
    with caplog.at_level(logging.WARNING):
        cache.put(stored)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1 (threshold 4/2 is not in lowest terms)"]
    assert cache.path.read_text() == json.dumps(stored.to_record()) + "\n"
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert list(cache.entries()) == [CacheEntry(3, t, None, 3)]
    assert caplog.records == []


@pytest.mark.parametrize("k", [3, 5])
def test_put_drops_a_threshold_not_in_lowest_terms_in_any_field_order(cache, caplog, k):
    # A line without the written head is parsed; in other terms it is dropped all the same,
    # while another key's line in lowest terms, in the same field order, is kept.
    t = Threshold(2)
    record = {**count_free(k, t, 3).to_record(), "num": 4, "den": 2}
    other_terms = json.dumps({"counts": record.pop("counts"), **record}) + "\n"
    kept = json.dumps({"counts": ["1", "4"], **count_free(4, t, 1).to_record()}) + "\n"
    cache.path.write_text(other_terms + kept)
    stored = count_free(3, t, 3)
    with caplog.at_level(logging.WARNING):
        cache.put(stored)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1 (threshold 4/2 is not in lowest terms)"]
    assert cache.path.read_text() == kept + json.dumps(stored.to_record()) + "\n"
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert list(cache.entries()) == [CacheEntry(3, t, None, 3),
                                         CacheEntry(4, t, None, 1)]
    assert caplog.records == []


def _mistyped_num(record):
    return json.dumps({**record, "num": "2"})


def _counts_first_mistyped_strict(record):
    return json.dumps({"counts": record.pop("counts"), **record, "strict": "no"})


@pytest.mark.parametrize("mistype", [_mistyped_num, _counts_first_mistyped_strict])
def test_put_drops_another_keys_line_with_a_mistyped_field(cache, caplog, mistype):
    # Neither line has a written head, so put parses it; its raw key is no key a get or put
    # asks for, and from_record refuses it, so put drops it rather than keep it for good.
    t = Threshold(2)
    cache.path.write_text(mistype(count_free(3, t, 3).to_record()) + "\n")
    stored = count_free(3, t, 4)
    with caplog.at_level(logging.WARNING):
        cache.put(stored)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1 (record fields have the wrong types)"]
    assert cache.path.read_text() == json.dumps(stored.to_record()) + "\n"
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert list(cache.entries()) == [CacheEntry(3, t, None, 4)]
    assert caplog.records == []


NOT_UTF8 = b"\xff\xfe bad\n"


def test_a_line_that_is_not_utf8_is_reported_by_get_and_entries_and_dropped_by_put(
        cache, caplog):
    t = Threshold(2)
    good = json.dumps(count_free(3, t, 5).to_record()).encode() + b"\n"
    # The second line has another key's head: it too is read only as far as is needed to
    # find that its bytes are not UTF-8.
    other = json.dumps(count_free(4, t, 5).to_record()).encode()[:-3] + b"\xe9\"]}\n"
    cache.path.write_bytes(good + NOT_UTF8 + other)
    with caplog.at_level(logging.WARNING):
        assert cache.get(3, t) == count_free(3, t, 5)
        assert list(cache.entries()) == [CacheEntry(3, t, None, 5)]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:{i} (line is not UTF-8)"
        for i in (2, 3)] * 2
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        cache.put(count_free(5, t, 4))
    assert len(caplog.records) == 2
    written = json.dumps(count_free(5, t, 4).to_record()).encode() + b"\n"
    assert cache.path.read_bytes() == good + written


def test_a_line_nested_too_deeply_to_parse_is_reported_by_every_reader(cache, caplog):
    # json.loads raises RecursionError, not ValueError, on a line this deep.
    t = Threshold(2)
    cache.path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with caplog.at_level(logging.WARNING):
        assert cache.get(3, t) is None
        assert list(cache.entries()) == []
        cache.put(count_free(3, t, 4))
    assert [rec.getMessage().split(" (")[0] for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:1"] * 3
    assert cache.path.read_text() == json.dumps(count_free(3, t, 4).to_record()) + "\n"


_PAST_THE_DIGIT_LIMIT = """
import hashlib, sys
from powfree import CountCache, CountSeries, Threshold, count_free

limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
k = 10**1500
s = count_free(k, Threshold(2), 4)
assert s.counts == (1, k, k * (k - 1), k * (k - 1)**2, k * (k - 1)**3 - k * (k - 1))
record = s.to_record()
assert [len(c) for c in record["counts"]] == [1, 1501, 3000, 4500, 6000]
assert CountSeries.from_record(record) == s
digest = s.digest()
cache = CountCache(sys.argv[1])
cache.put(s)
assert cache.get(k, Threshold(2)) == s
assert [e.max_length for e in cache.entries()] == [4]
assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
if limit:
    sys.set_int_max_str_digits(0)
key = f"{k}|2/1|0|None|" + ",".join(map(str, s.counts))
assert digest == hashlib.sha256(key.encode()).hexdigest()
print("ok")
"""


def test_counts_past_the_int_str_digit_limit_outside_the_cli(tmp_path):
    # C_4 of square-free words at k = 10**1500 has 6,000 digits, past CPython's default limit
    # of 4,300 on int-str conversions.  A library caller keeps that limit, and the series
    # still round-trips through its record, its digest and the cache without changing it.
    # A fresh interpreter starts at CPython's default limit, whatever this test run has set.
    src = str(Path(powfree.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _PAST_THE_DIGIT_LIMIT,
                           str(tmp_path / "c.jsonl")], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "ok\n")
