"""Counting engines: agreement, known values, weights, budgets."""

import concurrent.futures
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfree import (
    BudgetExceededError,
    CountSeries,
    Threshold,
    count_free,
    count_tail_restricted,
)
from powfree import counting
from powfree.words import _suffix_violation, _window_checks

from oracles import count_series

TERNARY_SQUAREFREE = (1, 3, 6, 12, 18, 30, 42, 60)
BINARY_OVERLAPFREE = (1, 2, 4, 6, 10, 14)
# Dejean thresholds, plus ones whose period-1 window has a tail of 1 (7/4) or 2.
TWO_LEVEL_THRESHOLDS = ([Threshold.dejean(n, s) for n in (2, 3, 4, 5) for s in (False, True)]
                        + [Threshold(a, b, s) for a, b in ((7, 4), (5, 2), (3, 1))
                           for s in (False, True)])


@pytest.mark.parametrize("k", [3, 5, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_base_counts(k, n):
    plain = count_free(k, Threshold.dejean(n), 2)
    assert plain.counts[1] == k
    assert plain.counts[2] == k * (k - 1)
    strict = count_free(k, Threshold.dejean(n, True), 2)
    assert strict.counts[2] == (k * k if n == 2 else k * (k - 1))


@pytest.mark.parametrize("method", ["naive", "canonical", pytest.param(None, id="auto")])
def test_ternary_squarefree_series(method):
    s = count_free(3, Threshold(2), 7, method)
    assert s.counts == TERNARY_SQUAREFREE
    assert s.method == (method or "canonical")


def test_binary_overlapfree_series():
    s = count_free(2, Threshold(2, 1, True), 5, "naive")
    assert s.counts == BINARY_OVERLAPFREE
    assert s.counts[4] == 10
    assert s.counts[2] == 4  # period-1 squares have exponent exactly 2, allowed


def test_engines_and_oracle_agree_small_grid():
    # k < 7, so the canonical rows are capped at d <= k.
    for k in (2, 3):
        for n in (2, 3):
            for strict in (False, True):
                t = Threshold.dejean(n, strict)
                expected = tuple(count_series(k, t.num, t.den, strict, 7))
                for method in ("naive", "canonical"):
                    assert count_free(k, t, 7, method).counts == expected, (k, n, strict, method)
                for tail_max in (1, 2):
                    expected = tuple(count_series(k, t.num, t.den, strict, 7, tail_max))
                    for method in ("naive", "canonical"):
                        got = count_tail_restricted(k, t, tail_max, 7, method)
                        assert got.counts == expected, (k, n, strict, tail_max, method)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=30), st.integers(0, 3), st.integers(1, 5),
       st.sampled_from(TWO_LEVEL_THRESHOLDS), st.sampled_from([None, 1, 2, 3]))
def test_last_two_levels_match_per_child_tests(draws, extra_k, steps, t, tail_max):
    # The walk runs 1-5 letters past a free prefix, as a pool task starts it:
    # an odd remainder takes the one-letter step, four or five letters an
    # inner two-letter step.
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


@pytest.mark.parametrize("k,t,L", [(3, Threshold(2), 11), (3, Threshold(2), 12),
                                   (20, Threshold(3, 2), 9), (20, Threshold(3, 2, True), 10)])
def test_walk_makes_one_pass_per_visited_pattern(monkeypatch, k, t, L):
    # The serial walk visits lengths L-2, L-4, ... and, for odd L, the root,
    # which steps one letter first; never length L-1.
    lengths = []
    real = counting._forbidden_next_two

    def counted(w, pairs):
        lengths.append(len(w))
        return real(w, pairs)

    monkeypatch.setattr(counting, "_forbidden_next_two", counted)
    table = counting._pattern_table(k, t, L, None, 1)
    visited = range(L - 2, -1, -2)
    assert len(lengths) == sum(sum(table[i]) for i in visited) + L % 2
    assert set(lengths) == set(visited) | {0}


def test_edge_lengths_match_naive_and_oracle():
    # L = 1 stays on the one-level path; L = 2 tallies both levels at the root.
    for t in TWO_LEVEL_THRESHOLDS:
        for k in (1, 2):
            for tail_max in (None, 1):
                for L in range(4):
                    expected = tuple(count_series(k, t.num, t.den, t.strict, L, tail_max))
                    for method in ("naive", "canonical"):
                        got = (count_free(k, t, L, method) if tail_max is None
                               else count_tail_restricted(k, t, tail_max, L, method))
                        assert got.counts == expected, (t, k, tail_max, L, method)


def test_canonical_weights_total_alphabet_power():
    vacuous = Threshold(1000, 1)
    for k in range(1, 9):
        s = count_free(k, vacuous, 6, "canonical")
        assert s.counts == tuple(k ** i for i in range(7))


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


def test_tail_restricted_engines_and_oracle_agree():
    for k, n, strict, tail_max in ((3, 2, False, 1), (2, 2, False, 2), (3, 3, True, 2)):
        t = Threshold.dejean(n, strict)
        expected = tuple(count_series(k, t.num, t.den, strict, 6, tail_max))
        for method in ("naive", "canonical"):
            got = count_tail_restricted(k, t, tail_max, 6, method)
            assert got.counts == expected, (k, n, strict, tail_max, method)


def test_naive_budget_refused():
    with pytest.raises(BudgetExceededError) as info:
        count_free(10, Threshold(2), 4, "naive", budget=1000)
    assert "budget" in str(info.value)
    assert info.value.parameter == "max-len"
    assert "engine" in str(info.value)  # suggests an alternative


def test_workers_do_not_change_counts():
    assert 13 >= counting._MIN_PARALLEL_LENGTH  # every case below reaches the pool
    t = Threshold(2)
    assert (count_free(3, t, 14, "canonical", workers=2).counts
            == count_free(3, t, 14, "canonical", workers=1).counts)
    td = Threshold.dejean(3)
    assert (count_free(9, td, 13, "canonical", workers=2).counts
            == count_free(9, td, 13, "canonical", workers=1).counts)
    assert (count_tail_restricted(9, td, 2, 13, "canonical", workers=2).counts
            == count_tail_restricted(9, td, 2, 13, "canonical", workers=1).counts)
    # Finite languages empty the frontier before the pool starts.
    finite = count_free(2, t, 14, "canonical", workers=2).counts
    assert finite == count_free(2, t, 14, "canonical", workers=1).counts
    assert finite[4:] == (0,) * 11
    assert count_free(1, t, 13, "canonical", workers=2).counts == (1, 1) + (0,) * 12


class _InlinePool:
    """Executor stand-in that records its size and runs the tasks in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,cores,expected", [
    (64, 4, 4),      # capped at the cores
    (3, 64, 3),      # as asked
    (64, 64, 24),    # capped at the tasks: 24 overlap-free binary patterns of length 11
])
def test_pool_size_is_capped(monkeypatch, workers, cores, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    t = Threshold(2, 1, True)
    got = count_free(2, t, 12, "canonical", workers=workers)
    assert _InlinePool.sizes == [expected]
    assert got.counts == count_free(2, t, 12, "canonical", workers=1).counts


def test_record_roundtrip():
    s = count_free(4, Threshold(7, 5, True), 6, "canonical")
    again = CountSeries.from_record(s.to_record())
    assert again == s
    rec = s.to_record()
    rec["counts"] = ["01"] + rec["counts"][1:]
    with pytest.raises(ValueError):
        CountSeries.from_record(rec)


def test_digest_ignores_method_but_not_counts():
    a = count_free(3, Threshold(2), 6, "naive")
    b = count_free(3, Threshold(2), 6, "canonical")
    assert a.digest() == b.digest()
    assert a.digest() != a.prefix(5).digest()


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
        replace(count_free(2, Threshold(2), 2), method="guess")
