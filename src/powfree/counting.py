"""Exact counting of threshold-free words, by two interchangeable engines.

naive      filters every word of every length through the detector; it is
           the test oracle and refuses work beyond its budget.
canonical  (the default) one depth-first walk over canonical patterns: first
           occurrences of distinct letters appear in increasing order.  It
           fills the table P[L][d] of free patterns of length L with d <= k
           distinct letters, then C_L = sum_d P[L][d] * perm(k, d).  This is
           sound because freeness is invariant under letter renaming, so a
           pattern with d distinct letters stands for perm(k, d) concrete
           words, and the walk never visits more nodes than a walk over
           words.  P[L][d] does not depend on k, so the state space stops
           growing once k >= L.

The canonical walk has two implementations with identical tables.  The
kernel, _walk.c, is compiled once with the system C compiler into
$XDG_CACHE_HOME/powfree/ (default ~/.cache/powfree/) when this module is
first imported, and loaded with ctypes at the first walk.  Each node keeps
its forbidden next letters in a bitmask, tallies its children by popcount
and walks them.  Its uint64 cells are exact up to L = 25.  The Python walk,
_dfs, is the reference; it runs when no compiler or no writable cache
directory exists, and above L = 25.  Each pattern it visits makes one pass,
words._forbidden_next_two, for the old letters that would end a forbidden
power after it and after each of its children (each window forbids at most
one; the fresh letter never completes a power).  From it the pattern
tallies its next two lengths and lists its free grandchildren, so the walk
visits every other length and never the last two.

With workers > 1 (capped at the cores) the walk is first deepened by
_grow, one level at a time, until the frontier holds _TASKS_PER_WORKER
prefixes per worker, or reaches length L-1, or empties.  The rows it tallies
on the way give an estimate of the patterns shorter than L
(_estimated_patterns); times the window pairs, that is the walk's window
tests.  Only when they exceed the pool crossover measured for the walk in
use is a pool started: each prefix becomes one pool task returning its own
table, and the tables are summed.  Otherwise the frontier is dropped and the
walk runs in-process from the root, as with one worker.

All counts are Python ints, hence exact at any size.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from fractions import Fraction
from itertools import product
from math import perm
from pathlib import Path

from .errors import BudgetExceededError, ValidationError
from .words import Threshold, _Value, _forbidden_next_two, _suffix_violation, _window_checks

__all__ = [
    "METHODS",
    "DEFAULT_NAIVE_BUDGET",
    "CountSeries",
    "count_free",
    "count_tail_restricted",
]

METHODS = ("naive", "canonical")
DEFAULT_NAIVE_BUDGET = 10**8

# The parallel frontier is deepened until it holds this many prefixes per worker.
_TASKS_PER_WORKER = 8
# A pool starts when the window tests of a walk to L -- its patterns shorter
# than L, estimated from the frontier's rows, times the (period, window) pairs
# -- exceed the crossover of the walk in use.  Measured on 2 cores at 2 workers
# for k=20 and k = 2-5 languages; the table is in BENCH_11.json.
_KERNEL_POOL_TESTS = 10_000_000
_DFS_POOL_TESTS = 200_000

_KERNEL_SOURCE = Path(__file__).with_name("_walk.c")
_CC_FLAGS = ("-O2", "-shared", "-fPIC")
# P[L][d] is at most the Bell number B_L, and B_25 < 2**64 < B_26.
_KERNEL_MAX_LENGTH = 25


class CountSeries(_Value):
    """Exact counts C_0..C_L of threshold-free words for fixed (k, threshold).

    tail_max, when set, marks the tail-restricted language: only forbidden
    powers whose tail is at most tail_max letters are excluded.
    """

    __slots__ = ("k", "threshold", "counts", "method", "tail_max")
    _defaults = {"tail_max": None}
    k: int
    threshold: Threshold
    counts: tuple[int, ...]
    method: str
    tail_max: int | None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.k < 1:
            raise ValidationError("alphabet size must be positive")
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(c < 0 for c in self.counts):
            raise ValidationError("counts must be nonnegative")

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def prefix(self, max_length: int) -> "CountSeries":
        if max_length > self.max_length:
            raise ValidationError("series too short for requested prefix")
        return self.replace(counts=self.counts[:max_length + 1])

    def ratios(self) -> tuple[Fraction, ...]:
        """Consecutive ratios C_{i+1}/C_i, stopping at the first zero count."""
        out = []
        for i in range(len(self.counts) - 1):
            if self.counts[i] == 0:
                break
            out.append(Fraction(self.counts[i + 1], self.counts[i]))
        return tuple(out)

    def digest(self) -> str:
        """Hex digest identifying the exact count data (method-independent)."""
        t = self.threshold
        key = f"{self.k}|{t.num}/{t.den}|{int(t.strict)}|{self.tail_max}|"
        key += ",".join(str(c) for c in self.counts)
        return hashlib.sha256(key.encode()).hexdigest()

    def to_record(self) -> dict:
        t = self.threshold
        return {
            "k": self.k,
            "num": t.num,
            "den": t.den,
            "strict": t.strict,
            "tail_max": self.tail_max,
            "method": self.method,
            "counts": [str(c) for c in self.counts],
        }

    @classmethod
    def from_record(cls, record: dict) -> "CountSeries":
        counts = tuple(int(c) for c in record["counts"])
        if any(str(c) != s for c, s in zip(counts, record["counts"])):
            raise ValidationError("counts are not canonical decimal strings")
        tail_max = record["tail_max"]
        method = str(record["method"])
        if method == "incremental":
            # Earlier releases had a third engine; its counts are the same.
            method = "canonical"
        return cls(
            k=int(record["k"]),
            threshold=Threshold(int(record["num"]), int(record["den"]), bool(record["strict"])),
            counts=counts,
            method=method,
            tail_max=None if tail_max is None else int(tail_max),
        )


def _dfs(k, pairs, max_length, table, w, distinct):
    """Walk free canonical patterns extending w, tallying table[length][distinct].

    Canonical patterns introduce letters in increasing order, so the next
    letter is one already used or distinct + 1 (while that stays <= k).  One
    pass, words._forbidden_next_two, gives the children of w and the letters
    each child may not be followed by: an old child c forbids common, c
    itself when repeat, and the letters named pairs with c; the fresh child
    is never named.  From it w tallies its children and grandchildren, by
    arithmetic on the set sizes, and then walks its free grandchildren, so
    the walk visits every other length and never the last two.  A pattern
    with an odd remainder (the root or a pool prefix) first steps one letter.
    """
    p = len(w)
    bad, repeat, common, named = _forbidden_next_two(w, pairs)
    old = distinct - len(bad)
    table[p + 1][distinct] += old
    if distinct < k:
        table[p + 1][distinct + 1] += 1
    if (max_length - p) % 2:
        if p + 1 < max_length:
            for c in range(1, min(distinct + 1, k) + 1):
                if c not in bad:
                    w.append(c)
                    _dfs(k, pairs, max_length, table, w, max(distinct, c))
                    w.pop()
        return
    leaves = old * (distinct - len(common))
    if repeat:
        leaves -= distinct - len(bad | common)
    # With repeat no free w holds two equal adjacent letters, so no named
    # letter is its own child.
    leaves -= sum(c not in bad and a not in common for c, a in named)
    table[p + 2][distinct] += leaves
    if distinct < k:
        table[p + 2][distinct + 1] += old + distinct + 1 - len(common) - repeat
        if distinct + 1 < k:
            table[p + 2][distinct + 2] += 1
    if p + 2 == max_length:
        return
    for c in range(1, min(distinct + 1, k) + 1):
        if c in bad:
            continue
        d = max(distinct, c)
        ban = common | {a for b, a in named if b == c} if named else common
        w.append(c)
        for a in range(1, d + 1):
            if a not in ban and (a != c or not repeat):
                w.append(a)
                _dfs(k, pairs, max_length, table, w, d)
                w.pop()
        if d < k:
            w.append(d + 1)
            _dfs(k, pairs, max_length, table, w, d + 1)
            w.pop()
        w.pop()


def _grow(k, pairs, level):
    """Yield the free (pattern, distinct) children of level in lexicographic order.

    Also the audit's level step, which walks the last level without holding it.
    """
    for w, distinct in level:
        bad = _forbidden_next_two(w, pairs)[0]
        for a in range(1, distinct + 1):
            if a not in bad:
                yield w + (a,), distinct
        if distinct < k:
            yield w + (distinct + 1,), distinct + 1


def _log():
    """This module's logger; logging is imported only when something is logged."""
    import logging

    return logging.getLogger(__name__)


def _new_table(k, max_length):
    return [[0] * (min(k, max_length) + 1) for _ in range(max_length + 1)]


def _kernel_file():
    """Where the kernel for this source, these flags, this machine and this interpreter lives."""
    try:
        key = hashlib.sha256(_KERNEL_SOURCE.read_bytes())
    except OSError as exc:
        _log().debug("no walk kernel source (%s); counting uses the Python walk", exc)
        return None
    if os.name != "posix":
        _log().debug("no walk kernel on %s; counting uses the Python walk", os.name)
        return None
    machine, tag = os.uname().machine, sys.implementation.cache_tag
    key.update(repr((_CC_FLAGS, (sys.platform, machine, tag))).encode())
    # Without an absolute XDG_CACHE_HOME or HOME there is nowhere safe to build.
    home = os.environ.get("HOME", "")
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.join(home, ".cache"))
    if not cache.is_absolute():
        _log().debug("cache directory %s is not absolute; counting uses the Python walk", cache)
        return None
    return cache / "powfree" / f"walk-{tag}-{machine}-{key.hexdigest()[:16]}.so"


def _check_private(path):
    """Refuse a path that another user owns or could write: its code would run in-process."""
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user "
                              f"(uid {st.st_uid}, mode {st.st_mode & 0o777:o})")


def _build_kernel(path):
    """Compile the kernel into path, unless it is there or a build cannot succeed.

    No compiler starts without a compiler on PATH and a writable directory
    that this user owns and no one else may write (mkdir does not change the
    mode of a directory that exists).  A failed compile leaves path.failed
    behind, so later imports do not retry it.  The library is compiled under
    a per-process name and renamed into place, so a concurrent first run never
    loads a half-written file.  Once it is in place, the libraries and .failed
    markers of earlier keys for this interpreter and machine are removed;
    those of other interpreters and machines stay.
    """
    if path is None:
        return
    failed = path.with_name(path.name + ".failed")
    if path.exists() or failed.exists():
        return
    import shutil
    import subprocess

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(path.parent)
        if not os.access(path.parent, os.W_OK):
            raise PermissionError(f"{path.parent} is not writable")
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            raise FileNotFoundError("no C compiler on PATH")
        done = subprocess.run([cc, *_CC_FLAGS, "-o", str(tmp), str(_KERNEL_SOURCE)],
                              capture_output=True)
        if done.returncode:
            failed.write_bytes(done.stderr)
            raise OSError(f"{cc} exited with {done.returncode}; see {failed}")
        os.chmod(tmp, 0o700)  # under umask 002 the compiler leaves it group-writable
        os.replace(tmp, path)
        prefix = path.name.rpartition("-")[0]
        for suffix in (".so", ".so.failed"):
            for old in path.parent.glob(f"{prefix}-{'[0-9a-f]' * 16}{suffix}"):
                if old != path:
                    old.unlink(missing_ok=True)
    except OSError as exc:
        _log().debug("walk kernel not built (%s); counting uses the Python walk", exc)
    finally:
        if tmp.exists():
            tmp.unlink()


@functools.cache
def _kernel():
    """The compiled walk, taking _walk's arguments for max_length <= 25, or None if unbuilt.

    Only a library in a directory private to this user, itself private, is loaded.
    """
    if _KERNEL_PATH is None or not _KERNEL_PATH.exists():
        return None
    import ctypes

    try:
        _check_private(_KERNEL_PATH.parent)
        _check_private(_KERNEL_PATH)
        fn = ctypes.CDLL(str(_KERNEL_PATH)).powfree_walk
    except (OSError, AttributeError) as exc:
        _log().debug("cannot load %s (%s); counting uses the Python walk", _KERNEL_PATH, exc)
        return None
    ints = ctypes.POINTER(ctypes.c_int)
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ints, ints, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_uint64), ctypes.c_char_p, ctypes.c_int, ctypes.c_int]
    fn.restype = ctypes.c_int

    def walk(k, pairs, max_length, prefix, distinct):
        # Only distinct < k is asked, so min(k, L) serves and a huge k fits a c_int.
        k = min(k, max_length)
        cells = (ctypes.c_uint64 * ((max_length + 1) * (k + 1)))()
        periods = (ctypes.c_int * len(pairs))(*(j for j, _ in pairs))
        windows = (ctypes.c_int * len(pairs))(*(m for _, m in pairs))
        if fn(k, len(pairs), periods, windows, max_length, cells, bytes(prefix), len(prefix),
              distinct):
            raise RuntimeError(f"walk kernel refused L={max_length}, prefix {prefix}")
        flat = list(cells)  # Python ints: tables stay exact and picklable
        return [flat[i:i + k + 1] for i in range(0, len(flat), k + 1)]

    return walk


def _kernel_for(max_length):
    return _kernel() if max_length <= _KERNEL_MAX_LENGTH else None


def _walk(k, pairs, max_length, prefix, distinct):
    """Table of the free completions of a free prefix shorter than max_length."""
    kernel = _kernel_for(max_length)
    if kernel is not None:
        return kernel(k, pairs, max_length, prefix, distinct)
    table = _new_table(k, max_length)
    _dfs(k, pairs, max_length, table, list(prefix), distinct)
    return table


def _frontier(k, pairs, max_length, size):
    """Rows of the free prefixes, grown one level at a time, up to the frontier.

    Growing stops when the frontier holds size prefixes, or they reach length
    max_length-1, or none are left.  Returns the table, the frontier and its depth.
    """
    table = _new_table(k, max_length)
    table[0][0] = 1
    frontier = [((), 0)]
    depth = 0
    while frontier and len(frontier) < size and depth < max_length - 1:
        depth += 1
        frontier = list(_grow(k, pairs, frontier))
        for _, distinct in frontier:
            table[depth][distinct] += 1
    return table, frontier, depth


def _estimated_patterns(table, k, depth, max_length):
    """Estimate of the free patterns of length <= max_length from the rows up to depth >= 1.

    Every pattern with j < k letters has one fresh child; one with j letters is
    taken to have j - f old children, where f is the mean number of old letters
    forbidden after a pattern of length depth-1, read off the last two rows.
    The rows are carried on by letter count to max_length.  From the frontier
    of 16 prefixes it read 0.74-0.91x the true total at k=20 (nine thresholds,
    L = 11-18) and 0.7-2.3x on ten k = 2-9 languages up to L = 25.
    """
    prev, row = table[depth - 1], table[depth]
    old = sum(row) - sum(prev[:k])
    f = (sum(j * c for j, c in enumerate(prev)) - old) / sum(prev)
    total = sum(map(sum, table[:depth + 1]))
    for _ in range(depth, max_length):
        row = [(c * (j - f) if j > f else 0) + (row[j - 1] if j else 0)
               for j, c in enumerate(row)]
        total += sum(row)
    return total


def _count_naive(k, t, max_length, tail_max, budget):
    if k ** max_length > budget:
        raise BudgetExceededError(
            f"naive engine: k**max_length = {k}**{max_length} candidate words exceed the "
            f"work budget {budget}; use the canonical engine",
            parameter="max-len",
        )
    pairs = _window_checks(t, max_length, tail_max)
    counts = [0] * (max_length + 1)
    counts[0] = 1
    for i in range(1, max_length + 1):
        for w in product(range(1, k + 1), repeat=i):
            for end in range(2, i + 1):
                if _suffix_violation(w, end, pairs) is not None:
                    break
            else:
                counts[i] += 1
    return counts


def _pattern_table(k, t, max_length, tail_max, workers):
    """P[L][d]: free canonical patterns of length L with d <= k distinct letters."""
    pairs = _window_checks(t, max_length, tail_max)
    if max_length == 0:
        return [[1]]

    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and max_length > 1:
        table, frontier, depth = _frontier(k, pairs, max_length, _TASKS_PER_WORKER * workers)
        if not frontier:
            return table
        crossover = _DFS_POOL_TESTS if _kernel_for(max_length) is None else _KERNEL_POOL_TESTS
        tests = _estimated_patterns(table, k, depth, max_length - 1) * len(pairs)
        if tests > crossover:
            # Imported here: runs that start no pool skip the import of multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            tasks = [(k, pairs, max_length, w, distinct) for w, distinct in frontier]
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                for sub in pool.map(_walk, *zip(*tasks)):
                    for row, sub_row in zip(table, sub):
                        for d, c in enumerate(sub_row):
                            row[d] += c
            return table

    table = _walk(k, pairs, max_length, (), 0)
    table[0][0] = 1
    return table


def _count(k, t, max_length, tail_max, method, workers, budget):
    if k < 1:
        raise ValidationError("alphabet size must be positive")
    if max_length < 0:
        raise ValidationError("max_length must be nonnegative")
    if tail_max is not None and tail_max < 1:
        raise ValidationError("tail_max must be positive")
    if method is None:
        method = "canonical"
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if method == "naive":
        counts = _count_naive(k, t, max_length, tail_max, budget)
    else:
        table = _pattern_table(k, t, max_length, tail_max, workers)
        counts = [sum(c * perm(k, d) for d, c in enumerate(row)) for row in table]
    return CountSeries(k=k, threshold=t, counts=tuple(counts), method=method, tail_max=tail_max)


def count_free(k: int, t: Threshold, max_length: int, method: str | None = None,
               *, workers: int = 1, budget: int = DEFAULT_NAIVE_BUDGET) -> CountSeries:
    """Exact number of t-free words of each length 0..max_length over {1..k}."""
    return _count(k, t, max_length, None, method, workers, budget)


def count_tail_restricted(k: int, t: Threshold, tail_max: int, max_length: int,
                          method: str | None = None, *, workers: int = 1,
                          budget: int = DEFAULT_NAIVE_BUDGET) -> CountSeries:
    """Count words avoiding only the forbidden powers whose tail is short.

    A word is rejected iff some factor is a forbidden power under t whose
    tail (length minus period) is at most tail_max.  Forbidden powers with
    longer tails are permitted, so the language contains the t-free one.
    """
    return _count(k, t, max_length, tail_max, method, workers, budget)


_KERNEL_PATH = _kernel_file()
# Built at import, outside any timed call, so that a cold first run does not
# count the compiler into its first enumeration; a warm import costs a stat.
_build_kernel(_KERNEL_PATH)
