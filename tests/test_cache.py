"""Count cache: round trips, longest-prefix rule, corruption handling."""

import json
import logging
import multiprocessing
import os
import tracemalloc

import pytest

from powfree import CountCache, CountSeries, Threshold, count_free, count_tail_restricted
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
    # entries checks every record's fields without building its series.
    validated.clear()
    record_fields = cache_module._record_fields
    monkeypatch.setattr(cache_module, "_record_fields",
                        lambda record: validated.append(record["k"]) or record_fields(record))
    assert len(cache.entries()) == 5
    assert sorted(validated) == [2, 3, 3, 3, 4]


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
    for reader in (lambda: cache.get(3, t), cache.entries):
        cache.put(count_free(3, t, 5))
        with monkeypatch.context() as mp:
            _opened_after_a_clear(mp, cache)
            assert reader() in (None, [])
    cache.put(count_free(4, t, 5))
    with monkeypatch.context() as mp:
        _opened_after_a_clear(mp, cache)
        cache.put(count_free(3, t, 5))
    assert cache.entries() == [CacheEntry(3, t, None, "canonical", 5)]


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
        listed = cache.entries()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [e.k for e in listed] == list(range(1, 201))
    assert listed[0] == CacheEntry(1, Threshold(2), None, "canonical", 19)
    assert not any(hasattr(e, "counts") for e in listed)
    assert held < 200_000, held  # 200 records of 8 KB of digits would hold 1.6 MB


def test_entries_warn_of_and_skip_corrupt_and_mistyped_records(cache, caplog):
    good = count_free(3, Threshold(2), 5)
    mistyped = good.to_record()
    mistyped["k"] = 4.0
    lines = [json.dumps(good.to_record()), "{not json", json.dumps(mistyped)]
    cache.path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING):
        assert cache.entries() == [CacheEntry(3, Threshold(2), None, "canonical", 5)]
    assert [rec.getMessage().partition(" (")[0] for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:{i}" for i in (2, 3)]


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
    # entries checks records without building their series, and reads none that
    # from_record would refuse, nor refuses one that it would read.
    cache.path.write_text(json.dumps(record) + "\n")
    try:
        series = CountSeries.from_record(record)
    except (ValueError, KeyError, TypeError):
        assert cache.entries() == []
    else:
        assert cache.entries() == [CacheEntry(series.k, series.threshold, series.tail_max,
                                              series.method, series.max_length)]


def test_entries_merge_a_key_written_in_other_terms(cache):
    # 4/2 is the threshold 2, as from_record reads it; the longest record wins.
    short, long = count_free(3, Threshold(2), 4).to_record(), count_free(3, Threshold(2), 6)
    cache.path.write_text(json.dumps({**short, "num": 4, "den": 2}) + "\n"
                          + json.dumps(long.to_record()) + "\n")
    assert cache.entries() == [CacheEntry(3, Threshold(2), None, "canonical", 6)]


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
        assert cache.entries() == [CacheEntry(3, t, None, "canonical", 5)]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping corrupt cache record {cache.path}:{i} (line is not UTF-8)"
        for i in (2, 3)] * 2
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        cache.put(count_free(5, t, 4))
    assert len(caplog.records) == 2
    written = json.dumps(count_free(5, t, 4).to_record()).encode() + b"\n"
    assert cache.path.read_bytes() == good + written
