"""Witness conditions, closed-form roots, exact certification."""

import math
from fractions import Fraction

import pytest
import sympy

from powfree import (
    LemmaViolationError,
    NoWitnessError,
    Threshold,
    ValidationError,
    asymptotic_target,
    certify,
    closed_form_root,
    condition_margin,
    count_free,
    rational_witness,
)


def float_margin(k, n, strict, x):
    base = k + 1 if strict else k
    return base - (n - 1) * x / (x - 1) - x


class TestClosedFormRoot:
    def test_values(self):
        assert closed_form_root(20, 3) == (19 + math.sqrt(281)) / 2  # the float bits
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

    def test_a_discriminant_beyond_the_floats_is_refused(self):
        # rational_witness stays exact there; only the float root cannot be taken.
        assert closed_form_root(10**154, 3) == pytest.approx(1e154)
        with pytest.raises(ValidationError, match="the float root needs k below about 1.3e154"):
            closed_form_root(2 * 10**154, 3)
        assert rational_witness(2 * 10**154, 3) is not None

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

    @pytest.mark.parametrize("function,args,message", [
        (condition_margin, (0, 1, False, Fraction(2)), "need n >= 2, got 1"),
        (condition_margin, (20, 0, True, Fraction(3)), "need n >= 2, got 0"),
        (condition_margin, (0, 3, False, Fraction(2)), "alphabet size must be positive"),
        (asymptotic_target, (20, 1), "need n >= 2, got 1"),
        (asymptotic_target, (0, 3, True), "alphabet size must be positive"),
    ])
    def test_every_function_of_k_and_n_refuses_the_same_pairs(self, function, args, message):
        with pytest.raises(ValidationError, match=message):
            function(*args)


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
        # (1, 5): b = -2 and c = 1, a discriminant of 0 and a root of -1, not above 1.
        for k, n, strict in ((2, 2, True), (3, 3, False), (10, 6, False), (2, 2, False),
                             (1, 5, False)):
            assert closed_form_root(k, n, strict) is None
            assert rational_witness(k, n, strict) is None

    def test_none_exactly_when_no_real_root_exceeds_1(self):
        # b and c from the README's quadratics, not from bounds.  sympy counts the real roots
        # in [1, oo) exactly; a root at 1 itself is not above 1.
        x = sympy.Symbol("x")
        for n in range(2, 13):
            for k in range(1, 251):
                for strict in (False, True):
                    b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
                    poly = sympy.Poly([1, -b, c], x)
                    none = poly.count_roots(1) == (poly.eval(1) == 0)
                    assert (rational_witness(k, n, strict) is None) == none, (k, n, strict)
                    assert (closed_form_root(k, n, strict) is None) == none, (k, n, strict)

    def test_monotone_in_precision(self):
        for k, n, strict in ((20, 3, False), (10, 3, True)):
            values = [rational_witness(k, n, strict, bits) for bits in (10, 20, 30, 40)]
            for a, b in zip(values, values[1:]):
                assert a <= b

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            rational_witness(20, 3, precision_bits=0)

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(-3)])
    def test_margin_refuses_a_witness_not_above_1(self, x):
        with pytest.raises(ValidationError, match="witness must exceed 1"):
            condition_margin(20, 3, False, x)


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

    def test_any_alphabet_size(self):
        # b^2 - 4c is near 10**400, beyond a float; the witness comes from an integer sqrt.
        k = 10**200
        cert = certify(k, 3, False, count_free(k, Threshold.dejean(3), 8))
        assert cert.condition_margin >= 0 and cert.verified_up_to == 7
        assert k - 3 < cert.x_witness < k - 2  # the root is about k - 2 - 2/k

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

    def test_a_witness_above_the_root_trips_its_own_canary(self, monkeypatch):
        # The root at (20, 3) is about 17.88; at 19 the condition fails.
        monkeypatch.setattr("powfree.bounds.rational_witness", lambda *args: Fraction(19))
        series = count_free(20, Threshold.dejean(3), 4, "canonical")
        with pytest.raises(LemmaViolationError, match="witness 19 fails its own condition"):
            certify(20, 3, False, series)

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
    """asymptotic_target(k, n) is k * (c0 + c1/k + c2/k^2), the first three terms of the
    non-strict root's expansion in 1/k.  At k a power of two every term is a float, so the
    target is compared as a Fraction, exactly."""

    def test_stated_coefficients(self):
        for n in range(2, 7):
            for k in (2 ** 4, 2 ** 10, 2 ** 20):
                assert Fraction(asymptotic_target(k, n)) == k + (1 - n) + Fraction(1 - n, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_symbolic_expansion(self, n):
        y = sympy.symbols("y")
        f = (1 + 2 * y - n * y + sympy.sqrt(4 * y ** 2 + (1 - n * y) ** 2 - 4 * n * y ** 2)) / 2
        poly = sympy.series(f, y, 0, 3).removeO()
        c0, c1, c2 = (int(poly.coeff(y, d)) for d in range(3))
        for k in (2 ** 4, 2 ** 10, 2 ** 20):
            assert Fraction(asymptotic_target(k, n)) == c0 * k + c1 + Fraction(c2, k)

    def test_residual_scaled_by_k2_stays_bounded(self):
        for k in (100, 1000, 10000):
            assert abs(closed_form_root(k, 3) - asymptotic_target(k, 3)) * k * k <= 10

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            asymptotic_target(20, 1)
