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
           growing once k >= L.  Each visited pattern makes one pass,
           words._forbidden_next_two, for the old letters that would end a
           forbidden power after it and after each of its children (each
           window forbids at most one; the fresh letter never completes a
           power).  From it the pattern tallies its next two lengths and
           lists its free grandchildren, so the walk visits every other
           length and never the last two.

With workers > 1 (capped at the cores) and L >= _MIN_PARALLEL_LENGTH, the
walk is deepened by _grow, one level at a time, until the frontier holds
_TASKS_PER_WORKER prefixes per worker, or reaches length L-1, or empties;
each prefix becomes one pool task returning its own table, and the tables
are summed.  Shorter enumerations run in-process.

All counts are Python ints, hence exact at any size.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import perm

from .errors import BudgetExceededError
from .words import Threshold, _forbidden_next_two, _suffix_violation, _window_checks

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
# Below this length a parallel pool mostly costs more than it saves.  Seconds
# at k=20 on 2 cores, serial / 2 workers, best of 5:
#   L    2            2+           3/2          3/2+         4/3
#   11   0.018/0.040  0.086/0.073
#   12   0.090/0.074  0.33/0.24    0.013/0.035  0.065/0.069  0.002/0.025
#   13                             0.056/0.069  0.45/0.29    0.014/0.029
#   14                             0.35/0.22                 0.067/0.078
#   15                                                       0.50/0.24
# No one length suits every threshold: at 12 squares and overlaps get the
# pool where it wins, and 3/2 and 4/3 pay at most ~25 ms until L=14-15.
_MIN_PARALLEL_LENGTH = 12


@dataclass(frozen=True)
class CountSeries:
    """Exact counts C_0..C_L of threshold-free words for fixed (k, threshold).

    tail_max, when set, marks the tail-restricted language: only forbidden
    powers whose tail is at most tail_max letters are excluded.
    """

    k: int
    threshold: Threshold
    counts: tuple[int, ...]
    method: str
    tail_max: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.k < 1:
            raise ValueError("alphabet size must be positive")
        object.__setattr__(self, "counts", tuple(self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def prefix(self, max_length: int) -> "CountSeries":
        if max_length > self.max_length:
            raise ValueError("series too short for requested prefix")
        return replace(self, counts=self.counts[:max_length + 1])

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
            raise ValueError("counts are not canonical decimal strings")
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
    """Free (pattern, distinct) children of level; also the audit's level step."""
    out = []
    for w, distinct in level:
        bad = _forbidden_next_two(w, pairs)[0]
        out += [(w + (a,), distinct) for a in range(1, distinct + 1) if a not in bad]
        if distinct < k:
            out.append((w + (distinct + 1,), distinct + 1))
    return out


def _new_table(k, max_length):
    return [[0] * (min(k, max_length) + 1) for _ in range(max_length + 1)]


def _subtree_table(args):
    """Pattern table of the completions of one frontier prefix (worker task)."""
    k, pairs, max_length, prefix, distinct = args
    table = _new_table(k, max_length)
    _dfs(k, pairs, max_length, table, list(prefix), distinct)
    return table


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
    table = _new_table(k, max_length)
    table[0][0] = 1
    if max_length == 0:
        return table

    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or max_length < _MIN_PARALLEL_LENGTH:
        _dfs(k, pairs, max_length, table, [], 0)
        return table

    # Deepen the frontier one level at a time until the pool can balance it.
    frontier = [((), 0)]
    depth = 0
    while frontier and len(frontier) < _TASKS_PER_WORKER * workers and depth < max_length - 1:
        depth += 1
        frontier = _grow(k, pairs, frontier)
        for _, distinct in frontier:
            table[depth][distinct] += 1
    if not frontier:
        return table
    # Imported here: runs that start no pool skip the import of multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(k, pairs, max_length, w, distinct) for w, distinct in frontier]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        for sub in pool.map(_subtree_table, tasks):
            for row, sub_row in zip(table, sub):
                for d, c in enumerate(sub_row):
                    row[d] += c
    return table


def _count(k, t, max_length, tail_max, method, workers, budget):
    if k < 1:
        raise ValueError("alphabet size must be positive")
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    if tail_max is not None and tail_max < 1:
        raise ValueError("tail_max must be positive")
    if method is None:
        method = "canonical"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
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
