"""Exact counting of threshold-free words, by two interchangeable engines.

naive      filters every word of every length through the detector's scan
           (words._first_window); it is the test oracle and refuses work
           beyond its budget.
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
kernel, _walk.c, is a CPython extension module compiled once with the system
C compiler and Python's headers into $XDG_CACHE_HOME/powfree/ (default
~/.cache/powfree/) by the first walk that finds it missing, and loaded by
importlib's extension loader at that walk.  Its one function,
tally(k, max_length, periods, windows, prefix, distinct), walks the
completions of one prefix and returns them as a new table of Python ints.
The pairs' periods and windows and the prefix are bytes, which _walk packs;
distinct is the prefix's letter count.  Each node gets its forbidden next
letters as a bitmask from its parent, tallies its children by popcount and
makes one pass over the windows up to two letters longer than itself, which
gives every child's mask; it walks the free children, but tallies those of
length L-1 into row L from their masks without visiting them.  Every 2**20
visited nodes it runs Python's signal handlers, so Ctrl-C stops it.  Its
limits are the bytes it takes: L <= 255 and fewer than 64 letters.
The Python walk, _dfs, is the reference the kernel's tables are tested
against; it runs only where no kernel loads (without a compiler, Python's
headers or a usable cache directory), and beyond those limits: longer than
255 letters, which only polynomially growing languages such as binary
overlap-free words reach, or with 64 letters or more.  It walks one letter
at a time: each pattern it visits makes one pass, words._forbidden_next, for
the old letters that would end a forbidden power after it (each window
forbids at most one; the fresh letter never completes a power), tallies its
children and walks them, so it visits every length below L.

A count walks from the empty pattern in one _walk call.  Only a run with
workers > 1 (capped at the cores) grows a frontier: _grow deepens it one
level at a time until it holds _TASKS_PER_WORKER prefixes per worker, or
reaches length L-1, or empties, and the rows it tallies on the way give an
estimate of the patterns shorter than L (_estimated_patterns); times the
window pairs, that is the walk's window tests.  A pool is started only when
they exceed the pool crossover measured for the walk in use: each prefix
becomes one pool task returning its own table, and _add_tables sums them
into the frontier's rows.  Otherwise the frontier is dropped and the count
walks from the empty pattern, as with one worker.

All counts are Python ints, hence exact at any size.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import zlib
from itertools import product
from math import perm
from pathlib import Path

from .errors import BudgetExceededError, ValidationError
from .words import (Threshold, _check_alphabet, _first_window, _forbidden_next, _Value,
                    _window_checks)

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
# -- exceed the crossover of the walk in use.  Measured on 2 cores, count --k 20
# with one worker against a pool of two, alternating, medians (BENCH_39.json):
#   tests    beta  L   1 worker  pool     pool faster
#   26.8 M   3/2   15  0.150 s   0.207 s   0 of 9
#   33.3 M   6/5+  17  0.163 s   0.226 s   0 of 9
#   151.8 M  3/2+  15  0.352 s   0.299 s  14 of 15
#   168.6 M  3/2   16  0.410 s   0.308 s  14 of 15
#   178.1 M  4/3   17  0.367 s   0.298 s  15 of 15
#   192.9 M  5/4+  17  0.386 s   0.282 s  13 of 15
#   1233 M   3/2   17  1.844 s   1.118 s   9 of 9
# _dfs's crossover was measured on k = 2-5 languages in BENCH_11.json.
_KERNEL_POOL_TESTS = 50_000_000
_DFS_POOL_TESTS = 200_000

_KERNEL_SOURCE = Path(__file__).with_name("_walk.c")
_CC_FLAGS = ("-O2", "-shared", "-fPIC")


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
        if not self.counts or min(self.counts) < 0:
            raise ValidationError("counts must hold C_0 and be nonnegative")

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def prefix(self, max_length: int) -> "CountSeries":
        if not 0 <= max_length <= self.max_length:
            raise ValidationError("prefix length outside 0..max_length")
        return self.replace(counts=self.counts[:max_length + 1])

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
        key += ",".join(map(_digits, self.counts))
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
            "counts": list(map(_digits, self.counts)),
        }

    @classmethod
    def from_record(cls, record: dict) -> "CountSeries":
        """The series of a to_record dict.  A field of another type, counts that are not
        canonical decimal strings, or a threshold not in lowest terms is a ValidationError."""
        k, num, den, strict, tail_max, counts = (record["k"], record["num"], record["den"],
                                                 record["strict"], record["tail_max"],
                                                 record["counts"])
        # type() rather than isinstance(): a bool is an int, and JSON true must not read as 1.
        if ({type(k), type(num), type(den)} != {int} or type(strict) is not bool
                or not (tail_max is None or type(tail_max) is int)):
            raise ValidationError("record fields have the wrong types")
        if type(counts) is not list or not _canonical(counts):
            raise ValidationError("counts are not a nonempty list of canonical decimal strings")
        method = str(record["method"])
        if method in ("incremental", "naive"):
            # Earlier releases had a third engine and stored the naive engine's counts too; the
            # counts are the same, and only the walk stores records now.
            method = "canonical"
        t = Threshold(num, den, strict)
        # to_record writes lowest terms, and get and put find a key by its written fields.
        if (t.num, t.den) != (num, den):
            raise ValidationError(f"threshold {num}/{den} is not in lowest terms")
        return cls(k=k, threshold=t, counts=map(_integer, counts), method=method, tail_max=tail_max)


def _digits(c: int) -> str:
    """str(c) past CPython's limit on int-str digits (4,300 by default), which the CLI lifts
    and a library caller may keep: Decimal converts without it, and leaves it as it is."""
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal  # here: only counts past the limit need it

        return str(Decimal(c))


def _integer(text: str) -> int:
    """int(text) of a canonical decimal string of any length, as _digits writes it."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(text))


def _check_fields(k, method, tail_max):
    """A ValidationError unless a series of these fields may exist."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    _check_alphabet(k)
    if tail_max is not None and tail_max < 1:
        raise ValidationError("tail_max must be positive")


def _check_workers(workers):
    """A ValidationError unless workers, the processes a count may use, is at least 1."""
    if workers < 1:
        raise ValidationError("workers must be at least 1")


# Canonical decimal strings, comma-joined: ASCII digits without a leading zero.
_COUNTS_TEXT = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _canonical(counts):
    """Whether counts is a nonempty list of canonical decimal strings; one regex
    match of the joined list, since a check per item took most of a cache list's time."""
    if set(map(type, counts)) != {str}:
        return False
    text = ",".join(counts)
    # An item that holds a comma would pass as two counts.
    return text.count(",") == len(counts) - 1 and _COUNTS_TEXT.fullmatch(text) is not None


def _dfs(k, pairs, max_length, table, w, distinct):
    """Walk free canonical patterns extending w, tallying table[length][distinct].

    Canonical patterns introduce letters in increasing order, so the next
    letter is one already used or distinct + 1 (while that stays <= k).  The
    one-letter walk, and the reference that _walk.c's tables are tested
    against: each visited pattern makes its own words._forbidden_next pass,
    tallies its children and walks the free ones while they are shorter than L.
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


def _log(name=__name__):
    """The logger of name, by default this module's; logging is imported only when
    something is logged."""
    import logging

    return logging.getLogger(name)


def _new_table(k, max_length):
    return [[0] * (min(k, max_length) + 1) for _ in range(max_length + 1)]


def _kernel_file():
    """Where the kernel for this source, these flags, this machine and this interpreter's ABI lives.

    The name carries a 64-bit checksum of those bytes, CRC-32 then Adler-32:
    CRC-32 changes with any one changed byte, and zlib, unlike hashlib, does
    not load OpenSSL's libcrypto into every walk.
    """
    try:
        key = _KERNEL_SOURCE.read_bytes()
    except OSError as exc:
        _log().debug("no walk kernel source (%s); counting uses the Python walk", exc)
        return None
    import importlib.machinery

    machine, tag = os.uname().machine, sys.implementation.cache_tag
    # The extension suffix carries the ABI flags, such as the free-threaded build's t.
    abi = importlib.machinery.EXTENSION_SUFFIXES[0]
    key += repr((_CC_FLAGS, (sys.platform, machine, tag, abi))).encode()
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
        import sysconfig

        include = "-I" + sysconfig.get_paths()["include"]
        done = subprocess.run([cc, *_CC_FLAGS, "-o", str(tmp), str(_KERNEL_SOURCE), include],
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
    """The compiled walk's tally(k, max_length, periods, windows, prefix, distinct), or None
    if unbuilt.

    tally takes k <= max_length, k <= 63, max_length <= 255, three bytes and an int: the
    pairs' periods and windows; prefix, one pattern shorter than max_length; and distinct,
    its letter count, at most k.  It returns a new table as _walk does, _dfs's table of the
    same prefix, and raises ValueError on arguments that break that contract.  Its nodes get
    their masks from their parents' window passes, and the patterns of length max_length-1
    are tallied without a visit (_walk.c's header).  The first call builds the library if it
    is missing.  Only a library in a directory private to this user, itself private, is
    loaded, as powfree._walk.
    """
    path = _kernel_file()
    _build_kernel(path)
    if path is None or not path.exists():
        return None
    from importlib.machinery import ExtensionFileLoader, ModuleSpec

    try:
        _check_private(path.parent)
        _check_private(path)
        loader = ExtensionFileLoader("powfree._walk", str(path))
        module = loader.create_module(ModuleSpec(loader.name, loader, origin=loader.path))
        loader.exec_module(module)
    except (OSError, ImportError) as exc:
        _log().debug("cannot load %s (%s); counting uses the Python walk", path, exc)
        return None
    sys.modules[loader.name] = module
    return module.tally


# The kernel, where one loads and its bytes hold the walk: L <= 255 and fewer than 64 letters.
# Its uint64 cells need no cap: a visited node adds at most 64 + 64*64 < 2**13 to them, so none
# nears 2**64 before the walk has visited 2**51 nodes, years at tens of nanoseconds a node.
def _kernel_for(k, max_length):
    return _kernel() if max_length <= 255 and min(k, max_length) <= 63 else None


def _walk(k, pairs, max_length, item):
    """A new table of the free completions of item, a free (prefix, distinct) whose prefix
    is shorter than max_length.

    The kernel walks it where _kernel_for gives one; otherwise _dfs does.
    """
    w, distinct = item
    kernel = _kernel_for(k, max_length)
    if kernel is not None:
        # Only distinct < k is asked, so min(k, L) serves and a huge k fits a C int.  L <= 255
        # fits every period, window and letter in a byte.
        return kernel(min(k, max_length), max_length, bytes(j for j, _ in pairs),
                      bytes(m for _, m in pairs), bytes(w), distinct)
    table = _new_table(k, max_length)
    # _dfs takes a frame per letter it appends; slowly growing languages (binary
    # overlap-free words, say) are walked deeper than the default limit of 1,000.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + max_length)
    try:
        _dfs(k, pairs, max_length, table, list(w), distinct)
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
    # k**max_length >= 2**((k.bit_length() - 1) * max_length): a refusal that this bound
    # decides costs no power, whose evaluation grows with max_length.
    if (k.bit_length() - 1) * max_length > budget.bit_length() or k ** max_length > budget:
        raise BudgetExceededError(
            f"naive engine: k**max_length = {k}**{max_length} candidate words exceed the "
            f"work budget {budget}; use the canonical engine")
    pairs = _window_checks(t, max_length, tail_max)
    return [sum(_first_window(w, pairs) is None for w in product(range(1, k + 1), repeat=i))
            for i in range(max_length + 1)]


def _pattern_table(k, t, max_length, tail_max, workers):
    """P[L][d]: free canonical patterns of length L with d <= k distinct letters."""
    pairs = _window_checks(t, max_length, tail_max)
    if max_length == 0:
        return [[1]]

    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        table, frontier, depth = _frontier(k, pairs, max_length, _TASKS_PER_WORKER * workers)
        crossover = _DFS_POOL_TESTS if _kernel_for(k, max_length) is None else _KERNEL_POOL_TESTS
        if (frontier and _estimated_patterns(table, k, depth, max_length - 1) * len(pairs)
                > crossover):
            # Imported here: runs that start no pool skip the import of multiprocessing.
            import multiprocessing
            import signal

            task = functools.partial(_walk, k, pairs, max_length)
            # Workers ignore Ctrl-C, so none prints a traceback. The parent terminates them as
            # it leaves the block, by the last table or by the interrupt: a pooled walk stops
            # at once.
            with multiprocessing.Pool(min(workers, len(frontier)), signal.signal,
                                      (signal.SIGINT, signal.SIG_IGN)) as pool:
                _add_tables(table, pool.imap(task, frontier))
            return table
    table = _walk(k, pairs, max_length, ((), 0))
    table[0][0] = 1
    return table


def _add_tables(table, subs):
    for sub in subs:
        for row, sub_row in zip(table, sub):
            for d, c in enumerate(sub_row):
                row[d] += c


def _count(k, t, max_length, tail_max, method, workers, budget):
    if method is None:
        method = "canonical"
    _check_fields(k, method, tail_max)
    if max_length < 0:
        raise ValidationError("max_length must be nonnegative")
    _check_workers(workers)
    if method == "naive":
        counts = _count_naive(k, t, max_length, tail_max, budget)
    else:
        table = _pattern_table(k, t, max_length, tail_max, workers)
        counts = [sum(c * perm(k, d) for d, c in enumerate(row)) for row in table]
    return CountSeries(k=k, threshold=t, counts=counts, method=method, tail_max=tail_max)


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

