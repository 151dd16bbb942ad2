"""Witness conditions, closed-form roots, exact certification."""

import math
from fractions import Fraction

import pytest
import sympy

from powfree import (
    LemmaViolationError,
    NoWitnessError,
    Threshold,
    asymptotic_target,
    certify,
    closed_form_root,
    condition_margin,
    count_free,
    rational_witness,
    taylor_coefficients,
)


def float_margin(k, n, strict, x):
    base = k + 1 if strict else k
    return base - (n - 1) * x / (x - 1) - x


class TestClosedFormRoot:
    def test_values(self):
        assert closed_form_root(20, 3) == pytest.approx((19 + math.sqrt(281)) / 2, abs=1e-12)
        assert closed_form_root(7, 3) == pytest.approx((6 + math.sqrt(8)) / 2, abs=1e-12)
        assert closed_form_root(10, 3, True) == pytest.approx((10 + math.sqrt(56)) / 2, abs=1e-12)

    def test_no_root_cases(self):
        assert closed_form_root(2, 2, True) is None
        assert closed_form_root(3, 3) is None
        assert closed_form_root(3, 3, True) is None
        assert closed_form_root(10, 6) is None  # discriminant 36 - 40 < 0

    def test_root_satisfies_condition(self):
        for n in range(2, 7):
            for k in range(n + 4, n + 41):
                for strict in (False, True):
                    root = closed_form_root(k, n, strict)
                    if root is None:
                        continue
                    assert abs(float_margin(k, n, strict, root)) <= 1e-9, (k, n, strict)

    def test_root_satisfies_condition_large_parameters(self):
        for n in (2, 10, 20):
            for k in (10**3, 10**5, 10**6):
                for strict in (False, True):
                    root = closed_form_root(k, n, strict)
                    assert abs(float_margin(k, n, strict, root)) <= 1e-9, (k, n, strict)

    def test_exact_rational_root_case(self):
        # discriminant 1 at (k, n) = (6, 3): the root is exactly 3
        assert closed_form_root(6, 3) == pytest.approx(3.0, abs=1e-12)
        assert condition_margin(6, 3, False, Fraction(3)) == 0

    def test_strict_root_dominates_plain(self):
        for n in (2, 3, 4, 6):
            for k in range(n + 5, n + 60, 7):
                plain = closed_form_root(k, n, False)
                strict = closed_form_root(k, n, True)
                if plain is not None and strict is not None:
                    assert strict > plain

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            closed_form_root(5, 1)
        with pytest.raises(ValueError):
            closed_form_root(0, 3)


class TestRationalWitness:
    def test_close_below_root_and_exact(self):
        for k, n, strict in ((20, 3, False), (7, 3, False), (10, 3, True), (12, 4, True)):
            root = closed_form_root(k, n, strict)
            w = rational_witness(k, n, strict, precision_bits=30)
            assert w > 1
            assert float(w) <= root + 1e-9
            assert root - float(w) <= 2 ** -30 + 1e-9
            assert condition_margin(k, n, strict, w) >= 0
        # exact: one step of 2**-p above the witness is already past the root
        for n in range(2, 8):
            for k in range(n + 1, 80):
                for strict in (False, True):
                    if closed_form_root(k, n, strict) is None:
                        continue
                    for bits in (1, 7, 40):
                        w = rational_witness(k, n, strict, bits)
                        assert condition_margin(k, n, strict, w) >= 0
                        assert condition_margin(k, n, strict, w + Fraction(1, 2 ** bits)) < 0

    def test_none_exactly_when_root_is_none(self):
        for k, n, strict in ((2, 2, True), (3, 3, False), (10, 6, False), (2, 2, False)):
            assert closed_form_root(k, n, strict) is None
            assert rational_witness(k, n, strict) is None

    def test_monotone_in_precision(self):
        for k, n, strict in ((20, 3, False), (10, 3, True)):
            values = [rational_witness(k, n, strict, bits) for bits in (10, 20, 30, 40)]
            for a, b in zip(values, values[1:]):
                assert a <= b

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            rational_witness(20, 3, precision_bits=0)


class TestCertify:
    def test_certificate_fields_and_ratios(self):
        t = Threshold.dejean(3)
        series = count_free(20, t, 10, "canonical")
        cert = certify(20, 3, False, series)
        assert cert.verified_up_to == 9
        assert cert.condition_margin >= 0
        assert cert.series_digest == series.digest()
        x = cert.x_witness
        for i in range(1, 10):
            assert Fraction(series.counts[i + 1]) >= x * series.counts[i]

    def test_strict_case(self):
        t = Threshold.dejean(4, True)
        series = count_free(10, t, 8, "canonical")
        cert = certify(10, 4, True, series)
        assert cert.strict and cert.verified_up_to == 7

    def test_no_witness(self):
        series = count_free(2, Threshold.dejean(2, True), 5, "canonical")
        with pytest.raises(NoWitnessError, match="no witness"):
            certify(2, 2, True, series)
        series = count_free(3, Threshold.dejean(3), 4, "canonical")
        with pytest.raises(NoWitnessError):
            certify(3, 3, False, series)

    def test_bad_counts_trip_the_canary(self):
        t = Threshold.dejean(3)
        series = count_free(10, t, 8, "canonical")
        dented = list(series.counts)
        dented[6] //= 50
        with pytest.raises(LemmaViolationError, match="ratio check failed"):
            certify(10, 3, False, series.replace(counts=tuple(dented)))

    def test_series_mismatch_rejected(self):
        series = count_free(10, Threshold.dejean(3), 8, "canonical")
        with pytest.raises(ValueError):
            certify(11, 3, False, series)
        with pytest.raises(ValueError):
            certify(10, 4, False, series)
        with pytest.raises(ValueError):
            certify(10, 3, True, series)
        short = count_free(10, Threshold.dejean(3), 1, "canonical")
        with pytest.raises(ValueError):
            certify(10, 3, False, short)


class TestAsymptoticTarget:
    def test_values(self):
        assert asymptotic_target(20, 3) == pytest.approx(17.9, abs=1e-12)
        assert asymptotic_target(20, 3, True) == pytest.approx(18.9, abs=1e-12)
        assert asymptotic_target(100, 2) == pytest.approx(98.99, abs=1e-12)

    def test_root_stays_above_target_minus_curvature_term(self):
        # the 1/k^2 coefficient of the root expansion is n(1-n) = -6 at n=3,
        # so any constant above 6.5 works at these k; 5 would not
        for k in (50, 100, 200, 400):
            for strict in (False, True):
                root = closed_form_root(k, 3, strict)
                target = asymptotic_target(k, 3, strict)
                assert root >= target - 7 / k ** 2, (k, strict)


class TestTaylorCoefficients:
    def test_stated_coefficients(self):
        for n in range(2, 7):
            assert taylor_coefficients(n) == (1, 1 - n, 1 - n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_symbolic_expansion(self, n):
        y = sympy.symbols("y")
        f = (1 + 2 * y - n * y + sympy.sqrt(4 * y ** 2 + (1 - n * y) ** 2 - 4 * n * y ** 2)) / 2
        poly = sympy.series(f, y, 0, 3).removeO()
        coeffs = tuple(int(poly.coeff(y, d)) for d in range(3))
        assert coeffs == taylor_coefficients(n)

    def test_residual_scaled_by_k2_stays_bounded(self):
        c0, c1, c2 = taylor_coefficients(3)
        for k in (100, 1000, 10000):
            root = closed_form_root(k, 3)
            approx = c0 * k + c1 + c2 / k
            assert abs(root - approx) * k * k <= 10

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            taylor_coefficients(1)
