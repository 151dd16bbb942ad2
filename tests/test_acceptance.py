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
    certify,
    condition_margin,
    count_free,
    count_tail_restricted,
    fj_audit,
    lower_series,
    rational_witness,
    suffix_determination_check,
)

from oracles import count_series, is_free
from test_bounds import isqrt_witness


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
    assert cert.condition_margin_num >= 0
    num, den = cert.x_witness_num, cert.x_witness_den
    for i in range(1, 10):
        assert series.counts[i + 1] * den >= num * series.counts[i]


@pytest.mark.parametrize("k,n", [(10, 3), (12, 4)])
def test_criterion_04_ratio_certification_strict(k, n):
    """Same protocol under the strict (plus) threshold."""
    series = count_free(k, Threshold.dejean(n, True), 10, "canonical")
    cert = certify(k, n, True, series)
    assert cert.verified_up_to == 9
    assert cert.condition_margin_num >= 0
    num, den = cert.x_witness_num, cert.x_witness_den
    for i in range(1, 10):
        assert series.counts[i + 1] * den >= num * series.counts[i]


@pytest.mark.parametrize("k,n,strict,i", [(4, 3, False, 6), (3, 2, False, 5), (2, 2, True, 6)])
def test_criterion_05_extension_census(k, n, strict, i):
    """Per-period census bounded by rewound counts; totals balance exactly."""
    t = Threshold.dejean(n, strict)
    audit = fj_audit(k, t, i)
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
    assert suffix_determination_check(k, Threshold.dejean(n, strict), i) is True


def test_criterion_07_closed_form_condition_consistency():
    """Roots satisfy the condition to 1e-9; witnesses satisfy it exactly."""
    for n in range(2, 7):
        for k in range(n + 4, n + 101):
            for strict in (False, True):
                t = Threshold.dejean(n, strict)
                pair = rational_witness(k, t)
                witness = None if pair is None else Fraction(*pair)
                assert witness == isqrt_witness(k, n, strict, 40)
                if witness is None:
                    # the quadratic has no real solution here (e.g. k=10, n=6)
                    continue
                b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
                root = (b + math.sqrt(b * b - 4 * c)) / 2
                base = k + 1 if strict else k
                assert abs(base - (n - 1) * root / (root - 1) - root) <= 1e-9
                assert float(witness) <= root + 1e-9
                assert condition_margin(k, t, pair)[0] >= 0


def test_criterion_08_asymptotics():
    """Scaled expansion residual stays bounded; stated coefficients hold."""
    for k in (10**2, 10**3, 10**4):
        root = isqrt_witness(k, 3, False, 80)  # within 2**-81 below the root
        assert abs(root - (k + 1 - 3 - Fraction(2, k))) * k * k <= 10
    # The root is k + (1-n) + (1-n)/k + O(1/k^2).
    for n in range(2, 7):
        assert lower_series(Threshold.dejean(n), 2) == (1 - n, 1 - n)


def test_criterion_09_no_certificate_regime():
    """(k=2, n=2, strict) has no witness; the counts are still produced."""
    series = count_free(2, Threshold.dejean(2, True), 5, "naive")
    assert series.counts == (1, 2, 4, 6, 10, 14)
    with pytest.raises(NoWitnessError, match="no witness"):
        certify(2, 2, True, series)


def test_criterion_10_fekete_and_bracket():
    """Doubling subsequence of C_i^(1/i) is non-increasing (C_2i <= C_i^2, in integers); the
    certified witness x has x^i <= C_i at every length."""
    ternary = count_free(3, Threshold(2), 24, "canonical")
    for i in range(1, 13):
        assert ternary.counts[2 * i] <= ternary.counts[i] ** 2

    series = count_free(20, Threshold.dejean(3), 10, "canonical")
    for i in range(1, 6):
        assert series.counts[2 * i] <= series.counts[i] ** 2
    cert = certify(20, 3, False, series)
    for i in range(series.max_length + 1):
        assert cert.x_witness_num ** i <= series.counts[i] * cert.x_witness_den ** i


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
