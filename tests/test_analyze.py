"""Growth estimates, the extension census, and the exploratory report."""

import math
from fractions import Fraction
from itertools import count, product

import pytest

from powfree import (
    BudgetExceededError,
    Threshold,
    certify,
    conjecture_report,
    count_free,
    fj_audit,
    growth_estimate,
    suffix_determination_check,
)

from powfree.analyze import _census
from powfree.counting import _grow
from powfree.words import _window_checks

from oracles import count_series, factor_is_power, forbidden_exponent, is_free


class TestGrowthEstimate:
    def test_bracket_on_ternary_squarefree(self):
        series = count_free(3, Threshold(2), 16, "canonical")
        est = growth_estimate(series)
        assert est.upper >= 1.30
        assert float(est.lower) <= est.upper + 1e-9
        assert est.ratios == tuple(
            Fraction(series.counts[i + 1], series.counts[i]) for i in range(16))

    def test_doubling_subsequence_nonincreasing(self):
        counts = count_free(3, Threshold(2), 16, "canonical").counts
        for i in range(1, 9):
            low = math.exp(math.log(counts[2 * i]) / (2 * i))
            high = math.exp(math.log(counts[i]) / i)
            assert low <= high + 1e-12

    def test_certified_lower_bound_used(self):
        series = count_free(10, Threshold.dejean(3), 8, "canonical")
        cert = certify(10, 3, False, series)
        est = growth_estimate(series, cert)
        assert est.lower == cert.x_witness
        assert float(est.lower) <= est.upper + 1e-9

    def test_degenerate_single_letter_alphabet(self):
        series = count_free(1, Threshold(2), 5, "canonical")
        est = growth_estimate(series)
        assert est.upper == 0.0
        assert est.lower == 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            growth_estimate(count_free(3, Threshold(2), 1))


AUDIT_INSTANCES = [
    (4, 3, False, 6), (3, 2, False, 5), (2, 2, True, 6),
    (3, 3, False, 5), (2, 3, True, 7), (4, 4, True, 5),
    (6, 3, False, 4), (5, 4, True, 4),  # k > i: every level can take a fresh letter
    (4, 4, True, 6),  # one rejected extension here falls into two period classes
]


class TestExtensionAudit:
    @pytest.mark.parametrize("k,n,strict,i", AUDIT_INSTANCES)
    def test_rows_satisfy_bounds_and_balance(self, k, n, strict, i):
        audit = fj_audit(k, n, strict, i)
        assert audit.rows
        for row in audit.rows:
            assert row.count <= row.bound
        assert sum(r.count for r in audit.rows) >= audit.f_total
        assert k * audit.c_i - audit.c_next == audit.f_total

    @pytest.mark.parametrize("k,n,strict,i", AUDIT_INSTANCES)
    def test_bounds_use_the_tail_rewound_counts(self, k, n, strict, i):
        t = Threshold.dejean(n, strict)
        counts = count_series(k, t.num, t.den, strict, i + 1)
        audit = fj_audit(k, n, strict, i)
        assert audit.c_i == counts[i] and audit.c_next == counts[i + 1]
        for row in audit.rows:
            j = row.period
            if strict:
                index = i - j // (n - 1)
            else:
                index = i + 1 - (-(-j // (n - 1)))
            assert row.bound == counts[index]

    @pytest.mark.parametrize("k,n,strict,i", AUDIT_INSTANCES)
    def test_f_total_matches_independent_enumeration(self, k, n, strict, i):
        """Brute force over all k**(i+1) words, through the oracles only."""
        t = Threshold.dejean(n, strict)
        end = i + 1
        rejected = [
            w for w in product(range(1, k + 1), repeat=end)
            if is_free(w[:i], t.num, t.den, strict) and not is_free(w, t.num, t.den, strict)]
        census = []
        for j in range(1, end):
            m = next(m for m in count(j + 1) if forbidden_exponent(m, j, t.num, t.den, strict))
            if m <= end:
                census.append((j, sum(1 for w in rejected if factor_is_power(w, end - m, j, m))))
        audit = fj_audit(k, n, strict, i)
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

    def test_budget_guard(self):
        # Growing 136 patterns of length 8 to length 9 may write 136 * 20 * 9 letters.
        with pytest.raises(BudgetExceededError, match="pattern letters"):
            fj_audit(20, 3, False, 10, budget=10_000)
        assert fj_audit(20, 3, False, 8, budget=10_000).f_total > 0

    def test_refused_audit_counts_nothing(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("count_free called before the budget check")

        monkeypatch.setattr("powfree.analyze.count_free", no_count)
        with pytest.raises(BudgetExceededError):
            fj_audit(20, 3, False, 15)

    @pytest.mark.parametrize("i", [-1, -2])
    def test_negative_length_is_rejected(self, i):
        with pytest.raises(ValueError):
            fj_audit(3, 2, False, i)
        with pytest.raises(ValueError):
            suffix_determination_check(3, 2, False, i)

    @pytest.mark.parametrize("k,n,strict,i", AUDIT_INSTANCES)
    def test_suffix_determination(self, k, n, strict, i):
        assert suffix_determination_check(k, n, strict, i) is True
        assert fj_audit(k, n, strict, i).suffix_determined is True


class TestConjectureReport:
    def test_row_shape_and_closed_form_relations(self):
        rows = conjecture_report([3], [50, 100, 200], max_length=5)
        assert [(r.k, r.n) for r in rows] == [(50, 3), (100, 3), (200, 3)]
        for r in rows:
            assert abs(r.big_jump - 1) <= 2e-3
            assert abs(r.small_variation - 1 / r.k) <= 5 / r.k ** 2
            assert abs(r.resid_times_k2) <= 10
            assert abs(r.resid_plus_times_k2) <= 10
            assert float(r.witness) <= r.root + 1e-9
            assert float(r.witness_plus) <= r.root_plus + 1e-9
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
