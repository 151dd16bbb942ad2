"""The extension census and the exploratory report."""

import math
from fractions import Fraction
from itertools import count, product

import pytest

from powfree import (
    BudgetExceededError,
    LemmaViolationError,
    Threshold,
    ValidationError,
    conjecture_report,
    count_free,
    fj_audit,
    lower_series,
    suffix_determination_check,
)

from powfree.analyze import _census, _target
from powfree.counting import _grow
from powfree.words import _window_checks

from oracles import count_series, factor_is_power, forbidden_exponent, is_free


def short_last_count(*args, **kwargs):
    """count_free with its last count one too small."""
    series = count_free(*args, **kwargs)
    return series.replace(counts=series.counts[:-1] + (series.counts[-1] - 1,))


AUDIT_INSTANCES = [(k, Threshold.dejean(n, strict), i) for k, n, strict, i in [
    (4, 3, False, 6), (3, 2, False, 5), (2, 2, True, 6),
    (3, 3, False, 5), (2, 3, True, 7), (4, 4, True, 5),
    (6, 3, False, 4), (5, 4, True, 4),  # k > i: every level can take a fresh letter
    (4, 4, True, 6),  # one rejected extension here falls into two period classes
]]
AUDIT_INSTANCES += [
    (4, Threshold(7, 5), 7), (4, Threshold(7, 4), 6), (5, Threshold(4, 3, True), 5),
    (3, Threshold(5, 2), 7),  # period 1 forbids aaa: its class is bounded by C_{i-1}
    (2, Threshold(3), 9), (2, Threshold(7, 3, True), 9),
    (2, Threshold(2), 5), (3, Threshold(3, 2), 6),  # finite languages: empty past length 3, 4
]


def audit_id(value):
    """n/(n-1) as n-strict, any other threshold as its text: k-n-strict-i, k-beta-i."""
    if isinstance(value, Threshold):
        return f"{value.num}-{value.strict}" if value.num == value.den + 1 else str(value)
    return None


# n/(n-1) for n = 2..5 in both readings, and thresholds that are not of that form.
CENSUS_THRESHOLDS = [Threshold.dejean(n, strict) for n in range(2, 6) for strict in (False, True)]
CENSUS_THRESHOLDS += [Threshold(7, 4), Threshold(5, 2, True), Threshold(3), Threshold(7, 5)]


def reference_census(k, end, pairs, leaves):
    """_census's result, from the oracle's test of each window per old letter."""
    f_total = 0
    counts = [0] * len(pairs)
    last = [None] * len(pairs)
    injective = True
    for w, d in leaves:
        for a in range(1, d + 1):
            v = w + (a,)
            hits = [c for c, (j, m) in enumerate(pairs)
                    if factor_is_power(v, end - m, j, m)]
            f_total += math.perm(k, d) if hits else 0
            for c in hits:
                j, m = pairs[c]
                counts[c] += math.perm(k, d)
                shortened = v[:end - (m - j)]
                injective = injective and shortened != last[c]
                last[c] = shortened
    return f_total, counts, injective


class TestExtensionAudit:
    @pytest.mark.parametrize("k,t,i", AUDIT_INSTANCES, ids=audit_id)
    def test_rows_satisfy_bounds_and_balance(self, k, t, i):
        audit = fj_audit(k, t, i)
        assert audit.rows
        for row in audit.rows:
            assert row.count <= row.bound
        assert sum(r.count for r in audit.rows) >= audit.f_total
        assert k * audit.c_i - audit.c_next == audit.f_total

    @pytest.mark.parametrize("k,t,i", AUDIT_INSTANCES, ids=audit_id)
    def test_bounds_use_the_tail_rewound_counts(self, k, t, i):
        counts = count_series(k, t.num, t.den, t.strict, i + 1)
        audit = fj_audit(k, t, i)
        assert audit.c_i == counts[i] and audit.c_next == counts[i + 1]
        for row in audit.rows:
            j = row.period
            m = next(m for m in count(j + 1) if forbidden_exponent(m, j, t.num, t.den, t.strict))
            assert row.bound == counts[i + 1 - (m - j)]

    @pytest.mark.parametrize("k,t,i", AUDIT_INSTANCES, ids=audit_id)
    def test_f_total_matches_independent_enumeration(self, k, t, i):
        """Brute force over all k**(i+1) words, through the oracles only."""
        end = i + 1
        rejected = [
            w for w in product(range(1, k + 1), repeat=end)
            if is_free(w[:i], t.num, t.den, t.strict) and not is_free(w, t.num, t.den, t.strict)]
        census = []
        for j in range(1, end):
            m = next(m for m in count(j + 1) if forbidden_exponent(m, j, t.num, t.den, t.strict))
            if m <= end:
                census.append((j, sum(1 for w in rejected if factor_is_power(w, end - m, j, m))))
        audit = fj_audit(k, t, i)
        assert audit.f_total == len(rejected)
        assert [(r.period, r.count) for r in audit.rows] == census

    @pytest.mark.parametrize("k,n,strict", [(5, 3, False), (3, 2, True), (4, 4, False)])
    def test_level_step_is_lexicographic(self, k, n, strict):
        # The census compares each class member only with the one before it.
        pairs = _window_checks(Threshold.dejean(n, strict), 9)
        level = [((), 0)]
        for _ in range(8):
            level = list(_grow(k, pairs, level))
            patterns = [w for w, _ in level]
            assert patterns == sorted(set(patterns))

    def test_census_flags_a_shared_shortened_prefix(self):
        # Over 2 letters, square-free: (1,2,1)+1 ends the square 11 and (1,2,1)+2 the
        # square 1212, each weighing 2 words.  A walk yields each leaf once, so no
        # Dejean input shares a shortened prefix; a leaf fed twice shares both.
        pairs = _window_checks(Threshold(2), 4)
        leaf = ((1, 2, 1), 2)
        assert _census(2, 4, pairs, [leaf]) == (4, [2, 2], True)
        assert _census(2, 4, pairs, [leaf, leaf]) == (8, [4, 4], False)

    @pytest.mark.parametrize("t", CENSUS_THRESHOLDS, ids=str)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_census_matches_a_per_pair_reference(self, k, t):
        # Every level of up to 5,000 leaves, i = 0..9, against a census that tests each old
        # letter against each pair alone with the oracle's factor test.
        grow_pairs = _window_checks(t, 10)
        level = [((), 0)]
        for i in range(10):
            if len(level) > 5000:
                break
            pairs = _window_checks(t, i + 1)
            assert _census(k, i + 1, pairs, level) == reference_census(k, i + 1, pairs, level)
            level = list(_grow(k, grow_pairs, level))

    def test_budget_guard(self):
        # Growing 136 patterns of length 8 to length 9 may write 136 * 20 * 9 letters.
        with pytest.raises(BudgetExceededError, match="pattern letters"):
            fj_audit(20, Threshold.dejean(3), 10, budget=10_000)
        assert fj_audit(20, Threshold.dejean(3), 8, budget=10_000).f_total > 0

    def test_refused_audit_counts_nothing(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("count_free called before the budget check")

        monkeypatch.setattr("powfree.analyze.count_free", no_count)
        with pytest.raises(BudgetExceededError):
            fj_audit(20, Threshold.dejean(3), 15)

    def test_a_wrong_count_trips_the_balance_canary(self, monkeypatch):
        monkeypatch.setattr("powfree.analyze.count_free", short_last_count)
        with pytest.raises(LemmaViolationError, match="extension balance failed"):
            fj_audit(4, Threshold.dejean(3), 6)

    def test_an_oversized_class_trips_the_bound_canary(self, monkeypatch):
        # f_total is kept, so the balance holds and the first period's bound fails.
        def inflated(*args):
            f_total, counts, injective = _census(*args)
            return f_total, [counts[0] + 10**9, *counts[1:]], injective

        monkeypatch.setattr("powfree.analyze._census", inflated)
        with pytest.raises(LemmaViolationError,
                           match=r"period-1 census \d+ exceeds its bound C_6 = \d+ "
                                 r"\(k=4, threshold 3/2, i=6\)$"):
            fj_audit(4, Threshold.dejean(3), 6)

    @pytest.mark.parametrize("i", [-1, -2])
    def test_negative_length_is_rejected(self, i):
        with pytest.raises(ValueError):
            fj_audit(3, Threshold(2), i)
        with pytest.raises(ValueError):
            suffix_determination_check(3, Threshold(2), i)

    @pytest.mark.parametrize("k,t,i", AUDIT_INSTANCES, ids=audit_id)
    def test_suffix_determination(self, k, t, i):
        assert suffix_determination_check(k, t, i) is True
        assert fj_audit(k, t, i).suffix_determined is True


class TestConjectureReport:
    def test_row_shape_and_closed_form_relations(self):
        rows = conjecture_report([3], [50, 100, 200], max_length=5)
        assert [(r.k, r.n) for r in rows] == [(50, 3), (100, 3), (200, 3)]
        for r in rows:
            assert abs(r.big_jump - 1) <= 2e-3
            assert abs(r.small_variation - 1 / r.k) <= 5 / r.k ** 2
            assert abs(r.resid_times_k2) <= 10
            assert abs(r.resid_plus_times_k2) <= 10
            assert float(Fraction(r.witness)) <= r.root + 1e-9
            assert float(Fraction(r.witness_plus)) <= r.root_plus + 1e-9
            assert r.alpha_ratio is not None and r.alpha_ratio > 0
            assert r.alpha_prime_ratio is not None
            assert r.alpha_prime_ratio >= r.alpha_ratio - 1e-9

    def test_known_instance_values(self):
        (row,) = conjecture_report([3], [20], max_length=4)
        assert row.target == pytest.approx(17.9)
        assert row.target_plus == pytest.approx(18.9)
        assert row.root == pytest.approx(17.8815273, abs=1e-6)

    def test_missing_roots_leave_blanks(self):
        (row,) = conjecture_report([6], [10], max_length=3)
        assert row.root is None and row.witness is None
        assert row.big_jump is None and row.small_variation is None
        assert row.root_plus is not None  # the strict condition still has a root

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            conjecture_report([3], [20], max_length=1)
        with pytest.raises(ValueError):
            conjecture_report([1], [20], max_length=4)

    def test_witness_cells_are_num_over_den_in_lowest_terms(self):
        # report's spelling keeps a den of 1: at (k, n) = (5, 3) the plus witness is exactly 3.
        (row,) = conjecture_report([3], [5], max_length=3)
        assert row.witness is None and row.witness_plus == "3/1"
        for row in conjecture_report([2, 3], [20, 50], max_length=3):
            for cell in (row.witness, row.witness_plus):
                num, den = map(int, cell.split("/"))
                assert den > 0 and math.gcd(num, den) == 1, cell


class TestTarget:
    """report's target k + c_0 + c_1/k is one correctly rounded division of integers."""

    def test_equals_the_rounded_exact_value(self):
        # float(k + c_0 + c_1 / k) in ints rounds c_1/k, then the sum: at (n, k) = (3, 3) that
        # reads 0.33333333333333337 where 1/3 rounds to 0.3333333333333333.
        for n in range(2, 9):
            for strict in (False, True):
                c0, c1 = terms = lower_series(Threshold.dejean(n, strict), 2)
                for k in range(2, 1001):
                    exact = float(Fraction(k * k + c0 * k + c1, k))
                    assert _target(k, terms) == exact, (n, strict, k)
        assert _target(3, lower_series(Threshold.dejean(3), 2)) == 1 / 3

    def test_a_target_beyond_the_floats_is_refused(self):
        # k + c_0 + c_1/k is about -n: at n = 2*10**308 it is below the least float.
        terms = lower_series(Threshold.dejean(2 * 10**308), 2)
        with pytest.raises(ValidationError, match="the float target needs n below about 1.8e308"):
            _target(5, terms)
