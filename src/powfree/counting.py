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

All counts are Python ints, hence exact at any size.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import perm

from .errors import BudgetExceededError
from .words import Threshold, _scan_violation, _suffix_violation, _window_checks

__all__ = [
    "METHODS",
    "DEFAULT_NAIVE_BUDGET",
    "CountSeries",
    "count_free",
    "count_tail_restricted",
]

METHODS = ("naive", "canonical")
DEFAULT_NAIVE_BUDGET = 10**8

# Depth at which the search tree is split into per-prefix subtree tasks.
_SPLIT_DEPTH = 4
# Below this length a parallel pool costs more than it saves.
_MIN_PARALLEL_LENGTH = 8


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


def _dfs(k, pairs, max_length, table, w, distinct, frontier=None):
    """Walk free canonical patterns extending w, tallying table[length][distinct].

    Canonical patterns introduce letters in increasing order, so the next
    letter is one already used or distinct + 1 (while that stays <= k).
    Given a frontier list, the patterns of length max_length are also
    collected there, as prefixes for subtree tasks.
    """
    ln = len(w) + 1
    row = table[ln]
    for a in range(1, min(distinct + 1, k) + 1):
        w.append(a)
        if _suffix_violation(w, ln, pairs) is None:
            d = distinct + 1 if a > distinct else distinct
            row[d] += 1
            if ln < max_length:
                _dfs(k, pairs, max_length, table, w, d, frontier)
            elif frontier is not None:
                frontier.append(tuple(w))
        w.pop()


def _new_table(k, max_length):
    return [[0] * (min(k, max_length) + 1) for _ in range(max_length + 1)]


def _subtree_table(args):
    """Pattern table of the completions of a chunk of frontier prefixes (worker task)."""
    k, num, den, strict, tail_max, max_length, prefixes = args
    pairs = _window_checks(Threshold(num, den, strict), max_length, tail_max)
    table = _new_table(k, max_length)
    for pref in prefixes:
        _dfs(k, pairs, max_length, table, list(pref), max(pref))
    return table


def _count_naive(k, t, max_length, tail_max, budget):
    if k ** max_length > budget:
        raise BudgetExceededError(
            f"naive engine: k**max_length = {k}**{max_length} exceeds the work budget "
            f"{budget}; use the canonical engine",
            parameter="max-len",
        )
    pairs = _window_checks(t, max_length, tail_max)
    counts = [0] * (max_length + 1)
    counts[0] = 1
    for i in range(1, max_length + 1):
        counts[i] = sum(
            1 for w in product(range(1, k + 1), repeat=i)
            if _scan_violation(w, pairs) is None
        )
    return counts


def _pattern_table(k, t, max_length, tail_max, workers):
    """P[L][d]: free canonical patterns of length L with d <= k distinct letters."""
    pairs = _window_checks(t, max_length, tail_max)
    table = _new_table(k, max_length)
    table[0][0] = 1
    if max_length == 0:
        return table

    if workers <= 1 or max_length < _MIN_PARALLEL_LENGTH:
        _dfs(k, pairs, max_length, table, [], 0)
        return table

    split = min(_SPLIT_DEPTH, max_length - 1)
    frontier: list[tuple[int, ...]] = []
    _dfs(k, pairs, split, table, [], 0, frontier)
    chunks = [frontier[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    if not chunks:
        return table
    tasks = [(k, t.num, t.den, t.strict, tail_max, max_length, chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
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
