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
$XDG_CACHE_HOME/powfree/ (default ~/.cache/powfree/) by the first walk above
the crossover below that finds it missing, and loaded with ctypes at that
walk.  Each node keeps its forbidden next letters in a bitmask, tallies its
children by popcount and walks them.  Its uint64 cells are exact up to
L = 25.  The Python walk, _dfs, is the reference; it runs when no compiler or
no writable cache directory exists, and above L = 25.  It is the kernel's
walk line for line: each pattern it visits makes one pass,
words._forbidden_next, for the old letters that would end a forbidden power
after it (each window forbids at most one; the fresh letter never completes
a power), tallies its children and walks them, so it visits every length
below L.

Every walk is first deepened by _grow, one level at a time, until the
frontier holds _TASKS_PER_WORKER prefixes per worker, or reaches length L-1,
or empties.  The rows it tallies on the way give an estimate of the
patterns shorter than L (_estimated_patterns); times the window pairs, that
is the walk's window tests.  At or below _KERNEL_MIN_TESTS the walk is
_dfs's, in-process: it ends before importing ctypes and loading (or
compiling) the kernel would have.  Above it the kernel walks where it
loads.  With workers > 1 (capped at the cores) a pool is started only when
the tests also exceed the pool crossover measured for the walk in use: each
prefix becomes one pool task returning its own table, and the tables are
summed.  Otherwise the same tasks run in-process, one after another.  Either
way each pattern is tested once: by _grow up to the frontier, then by the
walk below it.

All counts are Python ints, hence exact at any size.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import zlib
from fractions import Fraction
from itertools import product
from math import perm
from pathlib import Path

from .errors import BudgetExceededError, ValidationError
from .words import Threshold, _Value, _forbidden_next, _suffix_violation, _window_checks

__all__ = [
    "METHODS",
    "DEFAULT_NAIVE_BUDGET",
    "CountSeries",
    "count_free",
    "count_tail_restricted",
]

METHODS = ("naive", "canonical")
DEFAULT_NAIVE_BUDGET = 10**8

# The frontier is deepened until it holds this many prefixes per worker.
_TASKS_PER_WORKER = 8
# A pool starts when the window tests of a walk to L -- its patterns shorter
# than L, estimated from the frontier's rows, times the (period, window) pairs
# -- exceed the crossover of the walk in use.  Measured on 2 cores at 2 workers
# for k=20 and k = 2-5 languages; the table is in BENCH_11.json.
_KERNEL_POOL_TESTS = 10_000_000
_DFS_POOL_TESTS = 200_000
# At or below this many window tests (estimated as above) _dfs, at 2,000-3,000
# tests per ms, finishes before the kernel's first use would: importing ctypes
# and loading the library took 4-5 ms and 0.3 MB on 2 cores (BENCH_19.json).
_KERNEL_MIN_TESTS = 10_000

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
        _check_fields(self.k, self.method, self.tail_max)
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
        # CPython's own SHA-256 (_sha256 up to 3.11, _sha2 from 3.12): hashlib would
        # load OpenSSL's libcrypto (+3.6 MB RSS) for the same hex.
        try:
            from _sha256 import sha256
        except ImportError:
            try:
                from _sha2 import sha256
            except ImportError:
                from hashlib import sha256

        t = self.threshold
        key = f"{self.k}|{t.num}/{t.den}|{int(t.strict)}|{self.tail_max}|"
        key += ",".join(str(c) for c in self.counts)
        return sha256(key.encode()).hexdigest()

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
        """The series of a to_record dict; a field of another type is a ValidationError."""
        k, num, den, strict, tail_max, method, counts = _record_fields(record)
        return cls(k=k, threshold=Threshold(num, den, strict), counts=tuple(map(int, counts)),
                   method=method, tail_max=tail_max)


def _check_fields(k, method, tail_max):
    """A ValidationError unless a series of these fields may exist."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if k < 1:
        raise ValidationError("alphabet size must be positive")
    if tail_max is not None and tail_max < 1:
        raise ValidationError("tail_max must be positive")


# Canonical decimal strings, comma-joined: ASCII digits without a leading zero.
_COUNTS_TEXT = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _canonical(counts):
    """Whether every item of counts is a canonical decimal string; one regex match
    of the joined list, since a check per item took most of a cache list's time."""
    if not counts:
        return True
    if set(map(type, counts)) != {str}:
        return False
    text = ",".join(counts)
    # An item that holds a comma would pass as two counts.
    return text.count(",") == len(counts) - 1 and _COUNTS_TEXT.fullmatch(text) is not None


def _record_fields(record):
    """(k, num, den, strict, tail_max, method, counts) of a to_record dict, checked as
    from_record checks them, with num/den in lowest terms and counts left as strings."""
    k, num, den, strict, tail_max, counts = (record["k"], record["num"], record["den"],
                                             record["strict"], record["tail_max"], record["counts"])
    # type() rather than isinstance(): a bool is an int, and JSON true must not read as 1.
    if ({type(k), type(num), type(den)} != {int} or type(strict) is not bool
            or not (tail_max is None or type(tail_max) is int)):
        raise ValidationError("record fields have the wrong types")
    if type(counts) is not list or not _canonical(counts):
        raise ValidationError("counts are not a list of canonical decimal strings")
    method = str(record["method"])
    if method == "incremental":
        # Earlier releases had a third engine; its counts are the same.
        method = "canonical"
    num, den = Threshold._lowest_terms(num, den)
    # int() refuses a string longer than the interpreter's digit limit (3.10.7 on).
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and max(map(len, counts), default=0) > limit:
        int(next(c for c in counts if len(c) > limit))  # raises int's own ValueError
    _check_fields(k, method, tail_max)
    return k, num, den, strict, tail_max, method, counts


def _dfs(k, pairs, max_length, table, w, distinct):
    """Walk free canonical patterns extending w, tallying table[length][distinct].

    Canonical patterns introduce letters in increasing order, so the next
    letter is one already used or distinct + 1 (while that stays <= k).  Step
    for step _walk.c's walk: one words._forbidden_next pass, a tally of the
    children, and a walk into the free ones while they are shorter than L.
    """
    p = len(w)
    bad = _forbidden_next(w, pairs)
    table[p + 1][distinct] += distinct - len(bad)
    if distinct < k:
        table[p + 1][distinct + 1] += 1
    if p + 1 == max_length:
        return
    for c in range(1, distinct + 1):
        if c not in bad:
            w.append(c)
            _dfs(k, pairs, max_length, table, w, distinct)
            w.pop()
    if distinct < k:
        w.append(distinct + 1)
        _dfs(k, pairs, max_length, table, w, distinct + 1)
        w.pop()


def _grow(k, pairs, level):
    """Yield the free (pattern, distinct) children of level in lexicographic order.

    Also the audit's level step, which walks the last level without holding it.
    """
    for w, distinct in level:
        bad = _forbidden_next(w, pairs)
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
    """Where the kernel for this source, these flags, this machine and this interpreter lives.

    The name carries a 64-bit checksum of those bytes, CRC-32 then Adler-32:
    CRC-32 changes with any one changed byte, and zlib, unlike hashlib, does
    not load OpenSSL's libcrypto into every walk.
    """
    try:
        key = _KERNEL_SOURCE.read_bytes()
    except OSError as exc:
        _log().debug("no walk kernel source (%s); counting uses the Python walk", exc)
        return None
    if os.name != "posix":
        _log().debug("no walk kernel on %s; counting uses the Python walk", os.name)
        return None
    machine, tag = os.uname().machine, sys.implementation.cache_tag
    key += repr((_CC_FLAGS, (sys.platform, machine, tag))).encode()
    # Without an absolute XDG_CACHE_HOME or HOME there is nowhere safe to build.
    home = os.environ.get("HOME", "")
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.join(home, ".cache"))
    if not cache.is_absolute():
        _log().debug("cache directory %s is not absolute; counting uses the Python walk", cache)
        return None
    checksum = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    return cache / "powfree" / f"walk-{tag}-{machine}-{checksum}.so"


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
    behind, so later runs do not retry it.  The library is compiled under a
    per-process name and renamed into place, so a concurrent first run never
    loads a half-written file.  Nothing else is written, and nothing removed:
    the libraries of other keys stay for the checkouts that use them.
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
    except OSError as exc:
        _log().debug("walk kernel not built (%s); counting uses the Python walk", exc)
    finally:
        if tmp.exists():
            tmp.unlink()


@functools.cache
def _kernel():
    """The compiled walk, taking _walk's arguments for max_length <= 25, or None if unbuilt.

    The first call builds the library if it is missing.  Only a library in a
    directory private to this user, itself private, is loaded.
    """
    path = _kernel_file()
    _build_kernel(path)
    if path is None or not path.exists():
        return None
    import ctypes

    try:
        _check_private(path.parent)
        _check_private(path)
        fn = ctypes.CDLL(str(path)).powfree_walk
    except (OSError, AttributeError) as exc:
        _log().debug("cannot load %s (%s); counting uses the Python walk", path, exc)
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


def _walk(k, pairs, max_length, prefix, distinct, compiled):
    """Table of the free completions of a free prefix shorter than max_length.

    The kernel walks it when compiled is true and one loads for max_length;
    otherwise _dfs does.
    """
    kernel = _kernel_for(max_length) if compiled else None
    if kernel is not None:
        return kernel(k, pairs, max_length, prefix, distinct)
    table = _new_table(k, max_length)
    # _dfs takes a frame per letter it appends; slowly growing languages (binary
    # overlap-free words, say) are walked deeper than the default limit of 1,000.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + max_length)
    try:
        _dfs(k, pairs, max_length, table, list(prefix), distinct)
    finally:
        sys.setrecursionlimit(limit)
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
    """Estimate of the free patterns of length <= max_length from the rows up to depth.

    Rows that reach max_length give the exact total; otherwise depth >= 1.

    Every pattern with j < k letters has one fresh child; one with j letters is
    taken to have j - f old children, where f is the mean number of old letters
    forbidden after a pattern of length depth-1, read off the last two rows.
    The rows are carried on by letter count to max_length.  From the frontier
    of 16 prefixes it read 0.74-0.91x the true total at k=20 (nine thresholds,
    L = 11-18) and 0.7-2.3x on ten k = 2-9 languages up to L = 25.
    """
    total = sum(map(sum, table[:depth + 1]))
    if depth >= max_length:
        return total
    prev, row = table[depth - 1], table[depth]
    old = sum(row) - sum(prev[:k])
    f = (sum(j * c for j, c in enumerate(prev)) - old) / sum(prev)
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
    table, frontier, depth = _frontier(k, pairs, max_length, _TASKS_PER_WORKER * workers)
    if not frontier:
        return table
    tests = _estimated_patterns(table, k, depth, max_length - 1) * len(pairs)
    compiled = tests > _KERNEL_MIN_TESTS and _kernel_for(max_length) is not None
    tasks = [(k, pairs, max_length, w, distinct, compiled) for w, distinct in frontier]
    if workers > 1 and tests > (_KERNEL_POOL_TESTS if compiled else _DFS_POOL_TESTS):
        # Imported here: runs that start no pool skip the import of multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            _add_tables(table, pool.map(_walk, *zip(*tasks)))
    else:
        _add_tables(table, map(_walk, *zip(*tasks)))
    return table


def _add_tables(table, subs):
    for sub in subs:
        for row, sub_row in zip(table, sub):
            for d, c in enumerate(sub_row):
                row[d] += c


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

