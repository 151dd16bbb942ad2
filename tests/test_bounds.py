"""Witness conditions, closed-form roots, exact certification."""

import math
import re
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
    certify_series,
    closed_form_root,
    condition_margin,
    count_free,
    count_tail_restricted,
    min_violation_length,
    rational_witness,
)


def float_margin(k, n, strict, x):
    base = k + 1 if strict else k
    return base - (n - 1) * x / (x - 1) - x


def dejean(n, strict=False):
    return Threshold.dejean(n, strict)


def isqrt_witness(k, n, strict, bits):
    """The closed-form witness at n/(n-1): the root's square root rounded down in integers."""
    b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
    disc = b * b - 4 * c
    if disc < 0 or b <= 2:
        return None
    scale = 2 ** bits
    return Fraction(b * scale + math.isqrt(disc * scale * scale), 2 * scale)


def tails(t):
    """t_j for j = 1..q and s = p - q, from min_violation_length, as the README states them."""
    return [min_violation_length(j, t) - j for j in range(1, t.den + 1)], t.num - t.den


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
        assert rational_witness(2 * 10**154, dejean(3)) is not None

    def test_exact_rational_root_case(self):
        # discriminant 1 at (k, n) = (6, 3): the root is exactly 3
        assert closed_form_root(6, 3) == pytest.approx(3.0, abs=1e-12)
        assert condition_margin(6, dejean(3), Fraction(3)) == 0

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
        (condition_margin, (0, Threshold(7, 5), Fraction(2)), "alphabet size must be positive"),
        (rational_witness, (0, Threshold(7, 5)), "alphabet size must be positive"),
        (closed_form_root, (20, 0, True), "need n >= 2, got 0"),
        (closed_form_root, (0, 3), "alphabet size must be positive"),
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
            w = rational_witness(k, dejean(n, strict), precision_bits=30)
            assert w > 1
            assert float(w) <= root + 1e-9
            assert root - float(w) <= 2 ** -30 + 1e-9
            assert condition_margin(k, dejean(n, strict), w) >= 0
        # exact: one step of 2**-p above the witness is already past the root
        for n in range(2, 8):
            for k in range(n + 1, 80):
                for strict in (False, True):
                    if closed_form_root(k, n, strict) is None:
                        continue
                    t = dejean(n, strict)
                    for bits in (1, 7, 40):
                        w = rational_witness(k, t, bits)
                        assert condition_margin(k, t, w) >= 0
                        assert condition_margin(k, t, w + Fraction(1, 2 ** bits)) < 0

    def test_none_exactly_when_root_is_none(self):
        # (1, 5): b = -2 and c = 1, a discriminant of 0 and a root of -1, not above 1.
        for k, n, strict in ((2, 2, True), (3, 3, False), (10, 6, False), (2, 2, False),
                             (1, 5, False)):
            assert closed_form_root(k, n, strict) is None
            assert rational_witness(k, dejean(n, strict)) is None

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
                    assert (rational_witness(k, dejean(n, strict)) is None) == none, (k, n, strict)
                    assert (closed_form_root(k, n, strict) is None) == none, (k, n, strict)

    def test_equals_the_isqrt_formula_at_dejean(self):
        # At n/(n-1) the bisection's last grid point with g >= 0 is the closed form's, the
        # rounded-down integer square root, and g is the quadratic's slack.
        for n in range(2, 9):
            for strict in (False, True):
                t = dejean(n, strict)
                for k in (*range(1, 40), 50, 100, 202, 1000, 2 * 10**154):
                    for bits in (1, 10, 40):
                        w = rational_witness(k, t, bits)
                        assert w == isqrt_witness(k, n, strict, bits), (k, n, strict, bits)
                        if w is not None:
                            base = k + 1 if strict else k
                            assert condition_margin(k, t, w) == base - (n - 1) * w / (w - 1) - w
        assert rational_witness(10**200, dejean(3)) == isqrt_witness(10**200, 3, False, 40)

    @pytest.mark.parametrize("k,beta,witness,length", [
        (5, "7/4", "3.520722", 14), (8, "10/7", "5.525063", 12), (20, "7/5", "17.824850", 10),
        (3, "5/2", "2.337115", 16), (3, "3", "2.532089", 14), (3, "7/3+", "2.329913", 16),
    ])
    def test_witnesses_beyond_dejean(self, k, beta, witness, length):
        t = Threshold.parse(beta)
        x = rational_witness(k, t)
        assert f"{float(x):.6f}" == witness and (x * 2 ** 41).denominator == 1
        assert condition_margin(k, t, x) >= 0 > condition_margin(k, t, x + Fraction(1, 2 ** 41))
        cert = certify_series(count_free(k, t, length, "canonical"))
        assert (cert.k, cert.threshold, cert.x_witness) == (k, t, x)
        assert cert.verified_up_to == length - 1

    @pytest.mark.parametrize("strict", [False, True], ids=["", "plus"])
    def test_no_witness_exactly_where_g_stays_below_0(self, strict):
        # Q(x) = (k - x)(x^s - 1) x^(T-1) - sum_j x^(s+T-t_j) is g times (x^s - 1) x^(T-1) > 0,
        # and Q(1), Q(k) < 0: g >= 0 somewhere in (1, k) iff Q has a real root there, which
        # sympy counts exactly.
        x = sympy.Symbol("x")
        thresholds = [Threshold(p, q, strict) for q in range(1, 5) for p in range(q + 1, 3 * q + 1)
                      if math.gcd(p, q) == 1] + [Threshold(p, q, strict) for p, q in
                                                  ((7, 5), (6, 5), (9, 8))]
        for t in thresholds:
            ts, s = tails(t)
            top = max(ts)
            for k in range(1, 15):
                q = (k - x) * (x ** s - 1) * x ** (top - 1) - sum(x ** (s + top - tj) for tj in ts)
                none = sympy.Poly(q, x).count_roots(1, k) == 0
                assert (rational_witness(k, t) is None) == none, (k, t)
                series = count_free(k, t, 2)
                if none:
                    detail = re.escape(f"at k={k}, threshold {t}") + "$"
                    with pytest.raises(NoWitnessError, match=detail):
                        certify_series(series)
                else:
                    assert certify_series(series).verified_up_to == 1
        if not strict:
            for k, beta in ((6, "7/5"), (8, "6/5"), (12, "9/8")):
                assert rational_witness(k, Threshold.parse(beta)) is None

    def test_monotone_in_precision(self):
        for k, n, strict in ((20, 3, False), (10, 3, True)):
            values = [rational_witness(k, dejean(n, strict), bits) for bits in (10, 20, 30, 40)]
            for a, b in zip(values, values[1:]):
                assert a <= b

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            rational_witness(20, dejean(3), precision_bits=0)

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(-3)])
    def test_margin_refuses_a_witness_not_above_1(self, x):
        with pytest.raises(ValidationError, match="witness must exceed 1"):
            condition_margin(20, dejean(3), x)


class TestConditionMargin:
    @pytest.mark.parametrize("strict", [False, True], ids=["", "plus"])
    @pytest.mark.parametrize("beta", ["2", "3", "3/2", "5/2", "7/3", "7/4", "7/5", "10/7", "9/8",
                                      "19/17"])
    def test_closed_form_of_s_is_the_sum_over_periods(self, beta, strict):
        # t_j >= j (beta - 1) >= a s at period j = a q + r, 1 <= r <= q, in both readings: the
        # periods past a q cover add at most q x sum_{a' >= a} x^(-a' s) to the direct sum.
        t = Threshold.parse(beta, strict)
        q, s = t.den, t.num - t.den
        covers = 60
        for x in (Fraction(3, 2), Fraction(2), Fraction(7), Fraction(1000, 7)):
            closed = 1 - x - condition_margin(1, t, x)
            direct = sum(x ** (1 - (min_violation_length(j, t) - j))
                         for j in range(1, covers * q + 1))
            assert 0 < closed - direct <= q * x * x ** (-covers * s) / (1 - x ** -s), (x, t)


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
        assert cert.threshold == t and cert.verified_up_to == 7

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

    def test_certify_is_certify_series_at_dejean(self):
        series = count_free(20, Threshold.dejean(3, True), 8, "canonical")
        assert certify(20, 3, True, series) == certify_series(series)

    def test_a_tail_restricted_series_is_refused(self):
        series = count_tail_restricted(20, Threshold.dejean(3), 2, 6)
        with pytest.raises(ValidationError, match="tail_max=2"):
            certify_series(series)

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
