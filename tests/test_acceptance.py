"""Acceptance gate: one test per criterion, exact tolerances pinned.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from powfree import (
    NoWitnessError,
    Threshold,
    asymptotic_target,
    certify,
    closed_form_root,
    condition_margin,
    count_free,
    count_tail_restricted,
    fj_audit,
    growth_estimate,
    rational_witness,
    suffix_determination_check,
    taylor_coefficients,
)

from oracles import count_series, is_free


def test_criterion_01_base_cases():
    """C_1 = k and C_2 = k(k-1); strict n=2 allows squares of period 1."""
    for k in range(3, 9):
        for n in range(2, 6):
            for strict in (False, True):
                series = count_free(k, Threshold.dejean(n, strict), 2, "canonical")
                assert series.counts[0] == 1
                assert series.counts[1] == k
                if strict and n == 2:
                    assert series.counts[2] == k * k
                else:
                    assert series.counts[2] == k * (k - 1)


def test_criterion_02_engine_agreement():
    """naive and canonical produce identical counts, exactly; the oracle pins a prefix."""
    for k in (1, 2, 3, 4):
        for n in (2, 3, 4, 5):
            for strict in (False, True):
                t = Threshold.dejean(n, strict)
                naive = count_free(k, t, 9, "naive").counts
                canonical = count_free(k, t, 9, "canonical").counts
                oracle = tuple(count_series(k, t.num, t.den, strict, 6))
                assert naive == canonical, (k, n, strict)
                assert naive[:7] == oracle, (k, n, strict)


@pytest.mark.parametrize("k,n", [(10, 3), (20, 3), (12, 4)])
def test_criterion_03_ratio_certification(k, n):
    """Every C_{i+1} >= x * C_i holds exactly for a rational witness."""
    series = count_free(k, Threshold.dejean(n), 10, "canonical")
    cert = certify(k, n, False, series)
    assert cert.verified_up_to == 9
    assert cert.condition_margin >= 0
    x = cert.x_witness
    for i in range(1, 10):
        assert series.counts[i + 1] * x.denominator >= x.numerator * series.counts[i]


@pytest.mark.parametrize("k,n", [(10, 3), (12, 4)])
def test_criterion_04_ratio_certification_strict(k, n):
    """Same protocol under the strict (plus) threshold."""
    series = count_free(k, Threshold.dejean(n, True), 10, "canonical")
    cert = certify(k, n, True, series)
    assert cert.verified_up_to == 9
    assert cert.condition_margin >= 0
    x = cert.x_witness
    for i in range(1, 10):
        assert series.counts[i + 1] * x.denominator >= x.numerator * series.counts[i]


@pytest.mark.parametrize("k,n,strict,i", [(4, 3, False, 6), (3, 2, False, 5), (2, 2, True, 6)])
def test_criterion_05_extension_census(k, n, strict, i):
    """Per-period census bounded by rewound counts; totals balance exactly."""
    t = Threshold.dejean(n, strict)
    audit = fj_audit(k, n, strict, i)
    for row in audit.rows:
        assert row.count <= row.bound
    assert sum(r.count for r in audit.rows) >= audit.f_total
    assert k * audit.c_i - audit.c_next == audit.f_total
    # independent enumeration of the rejected extensions and counts
    direct = sum(
        1 for w in product(range(1, k + 1), repeat=i + 1)
        if is_free(w[:i], t.num, t.den, strict) and not is_free(w, t.num, t.den, strict))
    assert audit.f_total == direct
    oracle_counts = count_series(k, t.num, t.den, strict, i + 1)
    assert audit.c_i == oracle_counts[i] and audit.c_next == oracle_counts[i + 1]


@pytest.mark.parametrize("k,n,strict,i", [(4, 3, False, 6), (3, 2, False, 5), (2, 2, True, 6)])
def test_criterion_06_suffix_determination(k, n, strict, i):
    """Rejected extensions are recoverable from their shortened prefixes."""
    assert suffix_determination_check(k, n, strict, i) is True


def test_criterion_07_closed_form_condition_consistency():
    """Roots satisfy the condition to 1e-9; witnesses satisfy it exactly."""
    for n in range(2, 7):
        for k in range(n + 4, n + 101):
            for strict in (False, True):
                root = closed_form_root(k, n, strict)
                witness = rational_witness(k, n, strict)
                assert (root is None) == (witness is None)
                if root is None:
                    # the quadratic has no real solution here (e.g. k=10, n=6)
                    continue
                base = k + 1 if strict else k
                assert abs(base - (n - 1) * root / (root - 1) - root) <= 1e-9
                assert float(witness) <= root + 1e-9
                assert condition_margin(k, n, strict, witness) >= 0


def test_criterion_08_asymptotics():
    """Scaled expansion residual stays bounded; stated coefficients hold."""
    for k in (10**2, 10**3, 10**4):
        root = closed_form_root(k, 3)
        assert abs(root - (k + 1 - 3 - 2 / k)) * k * k <= 10
    for n in range(2, 7):
        assert taylor_coefficients(n) == (1, 1 - n, 1 - n)


def test_criterion_09_no_certificate_regime():
    """(k=2, n=2, strict) has no witness; the counts are still produced."""
    series = count_free(2, Threshold.dejean(2, True), 5, "naive")
    assert series.counts == (1, 2, 4, 6, 10, 14)
    with pytest.raises(NoWitnessError, match="no witness"):
        certify(2, 2, True, series)


def test_criterion_10_fekete_and_bracket():
    """Doubling subsequence of C_i^(1/i) is non-increasing; lower <= upper."""
    ternary = count_free(3, Threshold(2), 24, "canonical")
    for i in range(1, 13):
        c2i, ci = ternary.counts[2 * i], ternary.counts[i]
        assert math.exp(math.log(c2i) / (2 * i)) <= math.exp(math.log(ci) / i) + 1e-12
    est = growth_estimate(ternary)
    assert float(est.lower) <= est.upper + 1e-9

    series = count_free(20, Threshold.dejean(3), 10, "canonical")
    for i in range(1, 6):
        c2i, ci = series.counts[2 * i], series.counts[i]
        assert math.exp(math.log(c2i) / (2 * i)) <= math.exp(math.log(ci) / i) + 1e-12
    cert = certify(20, 3, False, series)
    est = growth_estimate(series, cert)
    assert est.lower == cert.x_witness
    assert float(est.lower) <= est.upper + 1e-9


def test_criterion_11_tail_restricted_sanity():
    """tail_max >= L is vacuous; tail_max = 1 matches the filtered oracle."""
    t = Threshold(2)
    full = count_free(3, t, 8, "canonical")
    vacuous = count_tail_restricted(3, t, 8, 8, "canonical")
    assert vacuous.counts == full.counts
    oracle = tuple(count_series(3, 2, 1, False, 6, tail_max=1))
    got = count_tail_restricted(3, t, 1, 6, "canonical")
    assert got.counts == oracle
    assert got.counts[:4] == (1, 3, 6, 12)
