"""Counting engines: agreement, known values, weights, budgets."""

import concurrent.futures
import hashlib
import logging
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfree import (
    BudgetExceededError,
    CountSeries,
    Threshold,
    ValidationError,
    count_free,
    count_tail_restricted,
)
from powfree import counting
from powfree.words import _suffix_violation, _window_checks

from oracles import count_series

TERNARY_SQUAREFREE = (1, 3, 6, 12, 18, 30, 42, 60)
BINARY_OVERLAPFREE = (1, 2, 4, 6, 10, 14)
# Dejean thresholds, plus ones whose period-1 window has a tail of 1 (7/4) or 2.
WALK_THRESHOLDS = ([Threshold.dejean(n, s) for n in (2, 3, 4, 5) for s in (False, True)]
                   + [Threshold(a, b, s) for a, b in ((7, 4), (5, 2), (3, 1))
                      for s in (False, True)])
HAS_CC = bool(shutil.which("cc") or shutil.which("gcc"))


@pytest.fixture
def python_walk(monkeypatch):
    """Force the pure-Python walk, _dfs, as when no kernel can be built."""
    monkeypatch.setattr(counting, "_kernel", lambda: None)


@pytest.fixture
def walks(monkeypatch):
    """Iterate a test body under both walks: the kernel (where one builds), then _dfs alone.

    The kernel half takes the kernel for every walk, however few its window tests.
    """
    def each():
        monkeypatch.setattr(counting, "_KERNEL_MIN_TESTS", -1)
        yield "kernel" if counting._kernel() is not None else "python (no kernel)"
        monkeypatch.setattr(counting, "_kernel", lambda: None)
        yield "python"
    return each()


@pytest.fixture
def pool_always(monkeypatch):
    """Let every enumeration whose frontier does not empty start the pool."""
    monkeypatch.setattr(counting, "_KERNEL_POOL_TESTS", 0)
    monkeypatch.setattr(counting, "_DFS_POOL_TESTS", 0)


@pytest.mark.parametrize("k", [3, 5, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_base_counts(k, n):
    plain = count_free(k, Threshold.dejean(n), 2)
    assert plain.counts[1] == k
    assert plain.counts[2] == k * (k - 1)
    strict = count_free(k, Threshold.dejean(n, True), 2)
    assert strict.counts[2] == (k * k if n == 2 else k * (k - 1))


@pytest.mark.parametrize("method", ["naive", "canonical", pytest.param(None, id="auto")])
def test_ternary_squarefree_series(walks, method):
    for walk in walks:
        s = count_free(3, Threshold(2), 7, method)
        assert s.counts == TERNARY_SQUAREFREE, walk
        assert s.method == (method or "canonical")


def test_binary_overlapfree_series():
    s = count_free(2, Threshold(2, 1, True), 5, "naive")
    assert s.counts == BINARY_OVERLAPFREE
    assert s.counts[4] == 10
    assert s.counts[2] == 4  # period-1 squares have exponent exactly 2, allowed


def test_engines_and_oracle_agree_small_grid(walks):
    # k < 7, so the canonical rows are capped at d <= k.
    for k, walk in ((k, walk) for walk in walks for k in (2, 3)):
        for n in (2, 3):
            for strict in (False, True):
                t = Threshold.dejean(n, strict)
                expected = tuple(count_series(k, t.num, t.den, strict, 7))
                for method in ("naive", "canonical"):
                    got = count_free(k, t, 7, method)
                    assert got.counts == expected, (k, n, strict, method, walk)
                for tail_max in (1, 2):
                    expected = tuple(count_series(k, t.num, t.den, strict, 7, tail_max))
                    for method in ("naive", "canonical"):
                        got = count_tail_restricted(k, t, tail_max, 7, method)
                        assert got.counts == expected, (k, n, strict, tail_max, method, walk)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=30), st.integers(0, 3), st.integers(1, 5),
       st.sampled_from(WALK_THRESHOLDS), st.sampled_from([None, 1, 2, 3]))
def test_last_two_levels_match_per_child_tests(draws, extra_k, steps, t, tail_max):
    # The walk runs 1-5 letters past a free prefix, as a pool task starts it,
    # and every level it tallies, the last two included, must match per-child
    # suffix tests.  The kernel, up to its length cap, walks the same prefix.
    pairs = _window_checks(t, len(draws) + steps, tail_max)
    w, distinct = [], 0
    for a in draws:  # keep the canonical draws that leave the pattern free
        w.append(min(a, distinct + 1))
        if _suffix_violation(w, len(w), pairs) is not None:
            w.pop()
        else:
            distinct = max(distinct, w[-1])
    k, L = distinct + extra_k, len(w) + steps
    expected = counting._new_table(k, L)
    level = [(w, distinct)]
    for length in range(len(w) + 1, L + 1):
        level = [(v + [a], max(d, a)) for v, d in level for a in range(1, min(d + 1, k) + 1)
                 if _suffix_violation(v + [a], length, pairs) is None]
        for _, d in level:
            expected[length][d] += 1
    table = counting._new_table(k, L)
    counting._dfs(k, pairs, L, table, list(w), distinct)
    assert table == expected
    kernel = counting._kernel_for(L)
    if kernel is not None:
        assert kernel(k, pairs, L, w, distinct) == expected


@pytest.mark.parametrize("k,t,L", [(3, Threshold(2), 11), (3, Threshold(2), 12),
                                   (20, Threshold(3, 2), 9), (20, Threshold(3, 2, True), 10)])
def test_walk_makes_one_pass_per_visited_pattern(monkeypatch, python_walk, k, t, L):
    # The serial Python walk makes one pass per free pattern shorter than L, at
    # every length 0..L-1, and none at L, whose patterns it only tallies.
    lengths = []
    real = counting._forbidden_next

    def counted(w, pairs):
        lengths.append(len(w))
        return real(w, pairs)

    monkeypatch.setattr(counting, "_forbidden_next", counted)
    table = counting._pattern_table(k, t, L, None, 1)
    assert Counter(lengths) == Counter({i: sum(table[i]) for i in range(L)})


def test_edge_lengths_match_naive_and_oracle(walks):
    # L = 1 tallies only the root's children; L = 2 also walks them.
    for t, walk in ((t, walk) for walk in walks for t in WALK_THRESHOLDS):
        for k in (1, 2):
            for tail_max in (None, 1):
                for L in range(4):
                    expected = tuple(count_series(k, t.num, t.den, t.strict, L, tail_max))
                    for method in ("naive", "canonical"):
                        got = (count_free(k, t, L, method) if tail_max is None
                               else count_tail_restricted(k, t, tail_max, L, method))
                        assert got.counts == expected, (t, k, tail_max, L, method, walk)


def test_canonical_weights_total_alphabet_power(walks):
    vacuous = Threshold(1000, 1)
    for k, walk in ((k, walk) for walk in walks for k in range(1, 9)):
        s = count_free(k, vacuous, 6, "canonical")
        assert s.counts == tuple(k ** i for i in range(7)), walk


@pytest.mark.parametrize("k,t,L", [(3, Threshold(2), 12), (2, Threshold(2, 1, True), 12)])
def test_submultiplicative(k, t, L):
    counts = count_free(k, t, L, "canonical").counts
    for m in range(L + 1):
        for n in range(L + 1 - m):
            assert counts[m + n] <= counts[m] * counts[n]


def test_counts_monotone_in_extended_order():
    ladder = [Threshold.dejean(3), Threshold.dejean(3, True),
              Threshold(2), Threshold(2, 1, True)]
    assert ladder == sorted(ladder, key=Threshold.order_key)
    series = [count_free(3, t, 7, "canonical").counts for t in ladder]
    for smaller, larger in zip(series, series[1:]):
        assert all(a <= b for a, b in zip(smaller, larger))


def test_tail_restriction_vacuous_when_tail_max_reaches_length():
    for k, t in ((3, Threshold(2)), (2, Threshold(2, 1, True))):
        full = count_free(k, t, 6, "canonical")
        restricted = count_tail_restricted(k, t, 6, 6, "canonical")
        assert restricted.counts == full.counts
        assert restricted.tail_max == 6


def test_tail_restricted_known_values():
    s = count_tail_restricted(3, Threshold(2), 1, 3, "naive")
    assert s.counts == (1, 3, 6, 12)  # only single-letter squares are banned
    s = count_tail_restricted(2, Threshold(2), 2, 4, "naive")
    assert s.counts == (1, 2, 2, 2, 0)


def test_tail_restricted_engines_and_oracle_agree(walks):
    for walk in walks:
        for k, n, strict, tail_max in ((3, 2, False, 1), (2, 2, False, 2), (3, 3, True, 2)):
            t = Threshold.dejean(n, strict)
            expected = tuple(count_series(k, t.num, t.den, strict, 6, tail_max))
            for method in ("naive", "canonical"):
                got = count_tail_restricted(k, t, tail_max, 6, method)
                assert got.counts == expected, (k, n, strict, tail_max, method, walk)


def test_naive_budget_refused():
    with pytest.raises(BudgetExceededError) as info:
        count_free(10, Threshold(2), 4, "naive", budget=1000)
    assert "budget" in str(info.value)
    assert info.value.parameter == "max-len"
    assert "engine" in str(info.value)  # suggests an alternative


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """The real process pool, recording that it started."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


def test_workers_do_not_change_counts(monkeypatch, pool_always, walks):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    t = Threshold(2)
    td = Threshold.dejean(3)
    for walk in walks:
        monkeypatch.setattr(_RecordingPool, "started", [])
        assert (count_free(3, t, 14, "canonical", workers=2).counts
                == count_free(3, t, 14, "canonical", workers=1).counts), walk
        assert (count_free(9, td, 13, "canonical", workers=2).counts
                == count_free(9, td, 13, "canonical", workers=1).counts), walk
        assert (count_tail_restricted(9, td, 2, 13, "canonical", workers=2).counts
                == count_tail_restricted(9, td, 2, 13, "canonical", workers=1).counts), walk
        assert _RecordingPool.started == [2, 2, 2]  # every case above reached the pool
        # A finite language empties its frontier, so it starts no pool.
        finite = count_free(2, t, 14, "canonical", workers=2).counts
        assert finite == count_free(2, t, 14, "canonical", workers=1).counts
        assert finite[4:] == (0,) * 11
        assert count_free(1, t, 13, "canonical", workers=2).counts == (1, 1) + (0,) * 12
        assert len(_RecordingPool.started) == 3


class _InlinePool:
    """Executor stand-in that records its size and runs the tasks in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *columns):
        return map(fn, *columns)


@pytest.mark.parametrize("workers,cores,expected", [
    (64, 4, 4),      # capped at the cores
    (3, 64, 3),      # as asked
    (64, 64, 24),    # capped at the tasks: 24 overlap-free binary patterns of length 11
])
def test_pool_size_is_capped(monkeypatch, pool_always, workers, cores, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    t = Threshold(2, 1, True)
    got = count_free(2, t, 12, "canonical", workers=workers)
    assert _InlinePool.sizes == [expected]
    assert got.counts == count_free(2, t, 12, "canonical", workers=1).counts


@pytest.mark.parametrize("k,t,L,low,high", [
    (20, Threshold(3, 2), 13, 0.5, 1.5),
    (20, Threshold(2, 1, True), 12, 0.5, 1.5),
    (3, Threshold(2), 25, 0.5, 3),         # ternary squares grow slowly
    (2, Threshold(3), 25, 0.5, 3),
])
def test_node_estimate_reads_the_frontier_rows(k, t, L, low, high):
    pairs = counting._window_checks(t, L, None)
    table, frontier, depth = counting._frontier(k, pairs, L, 16)
    rows = [sum(row) for row in counting._pattern_table(k, t, L, None, 1)]
    assert len(frontier) >= 16 and [sum(row) for row in table[:depth + 1]] == rows[:depth + 1]
    total = sum(rows)
    assert low * total < counting._estimated_patterns(table, k, depth, L) < high * total


def test_pool_starts_from_the_node_estimate(monkeypatch, walks):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    t = Threshold(3, 2)
    pairs = counting._window_checks(t, 13, None)
    table, _, depth = counting._frontier(20, pairs, 13, 16)
    tests = counting._estimated_patterns(table, 20, depth, 12) * len(pairs)
    for walk in walks:
        for crossover, sizes in ((tests + 1, []), (tests - 1, [2])):
            monkeypatch.setattr(counting, "_KERNEL_POOL_TESTS", crossover)
            monkeypatch.setattr(counting, "_DFS_POOL_TESTS", crossover)
            monkeypatch.setattr(_InlinePool, "sizes", [])
            assert count_free(20, t, 13, workers=2) == count_free(20, t, 13), walk
            assert _InlinePool.sizes == sizes, walk


def test_slow_languages_reach_the_pool_beyond_the_kernel_cap(monkeypatch):
    # Ternary squares at L=30 are walked by _dfs; on a 2-core host 2 workers took 0.067 s
    # against 0.101 s serial, and the estimate of their window tests is past _dfs's crossover.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    t = Threshold(2)
    assert count_free(3, t, 30, workers=2) == count_free(3, t, 30)
    assert _InlinePool.sizes == [2]


def test_short_enumerations_start_no_pool(monkeypatch, walks):
    # report's rows (L=8) and the sweep's cache misses (L=10) stay in-process
    # under either walk's crossover.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    for walk in walks:
        for t in (Threshold(2), Threshold(2, 1, True), Threshold(3, 2), Threshold(4, 3)):
            count_free(20, t, 10, workers=2)
            assert _InlinePool.sizes == [], (t, walk)


def test_walk_beyond_the_kernel_cap_is_python(monkeypatch):
    # Rows of uint64 are exact while the Bell number B_L < 2**64, i.e. L <= 25.  Every
    # walk, however small, would take the kernel below the cap.
    monkeypatch.setattr(counting, "_KERNEL_MIN_TESTS", -1)
    calls = []
    real = counting._dfs
    monkeypatch.setattr(counting, "_dfs", lambda *a: calls.append(a[2]) or real(*a))
    for L in (25, 26):
        assert count_free(1, Threshold(30), L).counts == (1,) * (L + 1)
    assert calls[-1] == 26 and counting._kernel_for(26) is None
    if counting._kernel() is not None:
        assert set(calls) == {26}


def test_python_walk_reaches_past_the_recursion_limit():
    # One pattern per length, each a frame deeper than its parent; the limit is restored.
    limit = sys.getrecursionlimit()
    L = limit + 500
    assert count_free(1, Threshold(2 * L), L).counts == (1,) * (L + 1)
    assert sys.getrecursionlimit() == limit


def test_kernel_is_built_only_under_an_absolute_cache_directory(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert counting._kernel_file().parent == tmp_path / "powfree"
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert counting._kernel_file().parent == tmp_path / ".cache" / "powfree"
    for home in ("", "relative"):
        monkeypatch.setenv("HOME", home)
        assert counting._kernel_file() is None
    monkeypatch.delenv("HOME")
    assert counting._kernel_file() is None


def test_kernel_file_is_named_for_the_machine(monkeypatch, tmp_path):
    # A cache shared between machines must not hand one a library built for another.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    here = counting._kernel_file()
    uname = os.uname()
    other = type("uname", (), {"machine": uname.machine + "-other"})
    monkeypatch.setattr(counting.os, "uname", lambda: other)
    assert counting._kernel_file() != here


def test_one_changed_byte_renames_the_kernel(monkeypatch, tmp_path):
    # A library is reused only for the exact source and flags it was built from.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    here = counting._kernel_file().name
    assert re.fullmatch(r"walk-.+-[0-9a-f]{16}\.so", here)
    source = bytearray(counting._KERNEL_SOURCE.read_bytes())
    source[len(source) // 2] ^= 1
    (tmp_path / "_walk.c").write_bytes(source)
    with monkeypatch.context() as m:
        m.setattr(counting, "_KERNEL_SOURCE", tmp_path / "_walk.c")
        assert counting._kernel_file().name != here
    monkeypatch.setattr(counting, "_CC_FLAGS", ("-O3", *counting._CC_FLAGS[1:]))
    assert counting._kernel_file().name != here


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_kernel_loads_only_from_private_files(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    load = counting._kernel.__wrapped__  # uncached; the first call builds
    assert load() is not None
    path = counting._kernel_file()
    assert path.stat().st_mode & 0o777 == 0o700
    for target in (path.parent, path):
        target.chmod(0o770)  # group-writable
        assert load() is None
        target.chmod(0o702)  # writable by others
        assert load() is None
        target.chmod(0o700)
    assert load() is not None
    owner = path.stat().st_uid
    monkeypatch.setattr(counting.os, "getuid", lambda: owner + 1)
    assert load() is None


def test_alternating_sources_each_compile_once_and_remove_nothing(monkeypatch, tmp_path):
    # Two checkouts whose _walk.c differ share one cache directory: each builds its
    # library once, and neither build removes the other's or any other file.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # cc -O2 -shared -fPIC -o OUT SRC: log SRC, write an empty OUT.
    (bin_dir / "cc").write_text(f'#!/bin/sh\necho "$6" >> {tmp_path / "compiled"}\n: > "$5"\n')
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sources = [tmp_path / "a.c", tmp_path / "b.c"]
    for i, source in enumerate(sources):
        source.write_text(f"/* {i} */\n")
    cache = tmp_path / "powfree"
    cache.mkdir(mode=0o700)
    prefix = counting._kernel_file().name.rpartition("-")[0]
    others = [f"{prefix}-{'0' * 16}.so", f"{prefix}-{'1' * 16}.so.failed",
              f"walk-{'2' * 16}.so", f"walk-cpython-0-{os.uname().machine}-{'3' * 16}.so",
              f"{prefix}-{'6' * 16}.so.99.tmp",  # another process's build in progress
              "notes.txt"]
    for name in others:
        (cache / name).write_text("")
    built = []
    for source in sources * 2:
        monkeypatch.setattr(counting, "_KERNEL_SOURCE", source)
        built.append(counting._kernel_file())
        counting._build_kernel(built[-1])
    assert built[:2] == built[2:] and built[0] != built[1]
    assert (tmp_path / "compiled").read_text().split() == [str(s) for s in sources]
    assert sorted(f.name for f in cache.iterdir()) == sorted(others + [p.name for p in built[:2]])


def test_unbuildable_cache_directory_logs_the_fallback(monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null/x")
    with caplog.at_level(logging.DEBUG, logger="powfree.counting"):
        counting._build_kernel(counting._kernel_file())
    [record] = caplog.records
    assert (record.name, record.levelno) == ("powfree.counting", logging.DEBUG)
    assert record.getMessage().startswith("walk kernel not built (")
    assert record.getMessage().endswith("); counting uses the Python walk")


def _run_counting(env, probe):
    src = str(Path(counting.__file__).resolve().parents[1])
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


_PROBE = ("import sys; from powfree import counting, Threshold, count_free; "
          "ctypes = 'ctypes' in sys.modules; c = count_free(20, Threshold(3, 2), 12).counts; "
          "print(ctypes, counting._kernel() is not None, c)")


def _failing_compilers(tmp_path):
    """PATH with cc and gcc stand-ins that log each start to tmp_path/compiled and fail."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name in ("cc", "gcc"):
        (bin_dir / name).write_text(f"#!/bin/sh\necho {name} >> {tmp_path / 'compiled'}\nexit 1\n")
        (bin_dir / name).chmod(0o755)
    return os.pathsep.join((str(bin_dir), os.environ.get("PATH", "")))


def _python_walk_output():
    return f"False False {count_free(20, Threshold(3, 2), 12).counts}\n"


def test_unbuildable_cache_directory_falls_back_without_a_compiler(tmp_path):
    # XDG_CACHE_HOME under a regular file cannot be created.
    (tmp_path / "file").write_text("")
    env = {"XDG_CACHE_HOME": str(tmp_path / "file" / "x"), "PATH": _failing_compilers(tmp_path)}
    assert _run_counting(env, _PROBE).communicate(timeout=120) == (_python_walk_output(), "")
    assert not (tmp_path / "compiled").exists()


def test_failed_compile_is_not_retried(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache"), "PATH": _failing_compilers(tmp_path)}
    for _ in range(2):
        assert _run_counting(env, _PROBE).communicate(timeout=120) == (_python_walk_output(), "")
    assert (tmp_path / "compiled").read_text() == "cc\n"
    assert [f.suffix for f in (tmp_path / "cache" / "powfree").iterdir()] == [".failed"]


def test_shared_cache_directory_is_neither_built_in_nor_loaded_from(monkeypatch, tmp_path):
    # Another user could plant a library in a directory anyone may write.
    shared = tmp_path / "powfree"
    shared.mkdir()
    shared.chmod(0o777)
    env = {"XDG_CACHE_HOME": str(tmp_path), "PATH": _failing_compilers(tmp_path)}
    assert _run_counting(env, _PROBE).communicate(timeout=120) == (_python_walk_output(), "")
    assert not (tmp_path / "compiled").exists() and list(shared.iterdir()) == []
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "own"))
    if HAS_CC and counting._kernel.__wrapped__() is not None:  # builds a private library
        library = counting._kernel_file()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        shutil.copy(library, counting._kernel_file())
        assert _run_counting(env, _PROBE).communicate(timeout=120) == (_python_walk_output(), "")


def test_commands_that_do_not_walk_compile_nothing(tmp_path):
    # check, cache and the naive engine never walk, and a canonical walk of a few
    # hundred window tests runs in Python, so they neither compile nor create the
    # kernel's directory; the first walk above the crossover then compiles once.
    cache = tmp_path / "cache"
    env = {"XDG_CACHE_HOME": str(cache), "PATH": _failing_compilers(tmp_path)}
    probe = ("import sys; from powfree.cli import main; codes = ["
             "main(['check', 'abc', '--beta', '2']), "
             f"main(['cache', 'list', '--cache', {str(tmp_path / 'c.jsonl')!r}]), "
             "main(['count', '--k', '3', '--beta', '2', '--max-len', '5', '--engine', 'naive']), "
             "main(['count', '--k', '3', '--beta', '2', '--max-len', '8'])]; "
             "print(codes, file=sys.stderr)")
    out, err = _run_counting(env, probe).communicate(timeout=120)
    assert err == "[0, 0, 0, 0]\n" and out.count('"30"') == 2 and '"60"' in out
    assert not (tmp_path / "compiled").exists() and not cache.exists()
    assert _run_counting(env, _PROBE).communicate(timeout=120) == (_python_walk_output(), "")
    assert (tmp_path / "compiled").read_text() == "cc\n"


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")
def test_concurrent_first_builds_both_load_the_kernel(tmp_path):
    procs = [_run_counting({"XDG_CACHE_HOME": str(tmp_path)}, _PROBE) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    expected = str(count_free(20, Threshold(3, 2), 12).counts)
    for out, err in outs:
        assert err == ""
        # Building needs no ctypes; the first walk loads the kernel.
        assert out.split(" ", 2) == ["False", "True", expected + "\n"]
    built = sorted(f.name for f in (tmp_path / "powfree").iterdir())
    assert len(built) == 1 and built[0].endswith(".so")
    assert (tmp_path / "powfree").stat().st_mode & 0o777 == 0o700


def test_record_roundtrip():
    s = count_free(4, Threshold(7, 5, True), 6, "canonical")
    again = CountSeries.from_record(s.to_record())
    assert again == s
    rec = s.to_record()
    rec["counts"] = ["01"] + rec["counts"][1:]
    with pytest.raises(ValueError):
        CountSeries.from_record(rec)


@pytest.mark.parametrize("field,value", [
    ("k", True), ("k", "4"), ("num", 7.0), ("den", False), ("strict", 1), ("strict", "false"),
    ("tail_max", False), ("tail_max", "2"), ("counts", "1369"), ("counts", {"1": 0, "4": 1}),
    ("counts", [1, 4]), ("counts", ["1", "+4"]), ("counts", ["1", " 4"]), ("counts", ["1", "٤"]),
    ("tail_max", 0),
])
def test_record_fields_of_another_type_are_refused(field, value):
    rec = count_tail_restricted(4, Threshold(7, 5, True), 2, 6).to_record()
    assert CountSeries.from_record(rec).to_record() == rec
    rec[field] = value
    with pytest.raises(ValidationError):
        CountSeries.from_record(rec)


def test_digest_ignores_method_but_not_counts():
    a = count_free(3, Threshold(2), 6, "naive")
    b = count_free(3, Threshold(2), 6, "canonical")
    assert a.digest() == b.digest()
    assert a.digest() != a.prefix(5).digest()


_series = st.builds(
    lambda k, den, extra, strict, tail_max, counts: CountSeries(
        k, Threshold(den + extra, den, strict), counts, "canonical", tail_max),
    st.integers(1, 10**6), st.integers(1, 50), st.integers(1, 50), st.booleans(),
    st.none() | st.integers(1, 100), st.lists(st.integers(0, 10**40), min_size=1, max_size=30))


def _hashlib_hex(series):
    t = series.threshold
    key = (f"{series.k}|{t.num}/{t.den}|{int(t.strict)}|{series.tail_max}|"
           + ",".join(map(str, series.counts)))
    return hashlib.sha256(key.encode()).hexdigest()


@settings(max_examples=200, deadline=None)
@given(_series)
def test_digest_is_hashlibs_sha256_of_the_key(series):
    assert series.digest() == _hashlib_hex(series)


@settings(max_examples=50, deadline=None)
@given(_series)
def test_digest_falls_back_to_hashlib(series):
    # None in sys.modules makes an import fail: neither built-in module is found.
    expected = _hashlib_hex(series)
    called = []
    sha256 = hashlib.sha256

    def recorded(data):
        called.append(data)
        return sha256(data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "_sha256", None)
        mp.setitem(sys.modules, "_sha2", None)
        mp.setattr(hashlib, "sha256", recorded)
        assert series.digest() == expected
    assert len(called) == 1


def test_edge_cases():
    assert count_free(5, Threshold(2), 0).counts == (1,)
    assert count_free(1, Threshold(2), 4, "canonical").counts == (1, 1, 0, 0, 0)
    s = count_free(1, Threshold(2), 4, "canonical")
    assert s.ratios() == (Fraction(1), Fraction(0))
    assert s.prefix(2).counts == (1, 1, 0)
    with pytest.raises(ValueError):
        s.prefix(9)
    with pytest.raises(ValueError):
        count_free(3, Threshold(2), 4, "transfer-matrix")
    with pytest.raises(ValueError):
        count_free(3, Threshold(2), 4, "incremental")
    with pytest.raises(ValueError):
        count_tail_restricted(3, Threshold(2), 0, 4)
    with pytest.raises(ValueError):
        count_free(0, Threshold(2), 4)
    with pytest.raises(ValueError):
        count_free(2, Threshold(2), 2).replace(method="guess")
