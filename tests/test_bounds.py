"""Witness conditions, closed-form roots, the lower root's series, exact certification."""

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
    certify,
    certify_series,
    condition_margin,
    count_free,
    count_tail_restricted,
    lower_series,
    min_violation_length,
    rational_witness,
)
from powfree import bounds
from powfree.analyze import _closed_form_root

from oracles import forbidden_exponent


def float_margin(k, n, strict, x):
    base = k + 1 if strict else k
    return base - (n - 1) * x / (x - 1) - x


def witness(k, t, bits=40):
    """rational_witness(k, t, bits) as a Fraction, or None; its pair is in lowest terms, den > 0."""
    w = rational_witness(k, t, bits)
    if w is None:
        return None
    assert all(type(v) is int for v in w) and w[1] > 0 and math.gcd(*w) == 1, w
    return Fraction(*w)


def margin(k, t, x):
    """condition_margin(k, t, x) at a Fraction x, as a Fraction; its pair is in lowest terms,
    den > 0."""
    m = condition_margin(k, t, (x.numerator, x.denominator))
    assert all(type(v) is int for v in m) and m[1] > 0 and math.gcd(*m) == 1, m
    return Fraction(*m)


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
        assert _closed_form_root(20, 3, False) == (19 + math.sqrt(281)) / 2  # the float bits
        assert _closed_form_root(7, 3, False) == pytest.approx((6 + math.sqrt(8)) / 2, abs=1e-12)
        assert _closed_form_root(10, 3, True) == pytest.approx((10 + math.sqrt(56)) / 2, abs=1e-12)

    def test_no_root_cases(self):
        assert _closed_form_root(2, 2, True) is None
        assert _closed_form_root(3, 3, False) is None
        assert _closed_form_root(3, 3, True) is None
        assert _closed_form_root(10, 6, False) is None  # discriminant 36 - 40 < 0
        for n in range(2, 13):
            for k in range(1, 251):
                for strict in (False, True):
                    none = isqrt_witness(k, n, strict, 1) is None
                    assert (_closed_form_root(k, n, strict) is None) == none, (k, n, strict)

    def test_root_satisfies_condition(self):
        for n in range(2, 7):
            for k in range(n + 4, n + 41):
                for strict in (False, True):
                    root = _closed_form_root(k, n, strict)
                    if root is None:
                        continue
                    assert abs(float_margin(k, n, strict, root)) <= 1e-9, (k, n, strict)

    def test_root_satisfies_condition_large_parameters(self):
        for n in (2, 10, 20):
            for k in (10**3, 10**5, 10**6):
                for strict in (False, True):
                    root = _closed_form_root(k, n, strict)
                    assert abs(float_margin(k, n, strict, root)) <= 1e-9, (k, n, strict)

    def test_a_discriminant_beyond_the_floats_is_refused(self):
        # rational_witness stays exact there; only the float root cannot be taken.
        assert _closed_form_root(10**154, 3, False) == pytest.approx(1e154)
        with pytest.raises(ValidationError, match="the float root needs k below about 1.3e154"):
            _closed_form_root(2 * 10**154, 3, False)
        assert rational_witness(2 * 10**154, dejean(3)) is not None

    def test_exact_rational_root_case(self):
        # discriminant 1 at (k, n) = (6, 3): the root is exactly 3
        assert _closed_form_root(6, 3, False) == pytest.approx(3.0, abs=1e-12)
        assert condition_margin(6, dejean(3), (3, 1)) == (0, 1)

    def test_strict_root_dominates_plain(self):
        for n in (2, 3, 4, 6):
            for k in range(n + 5, n + 60, 7):
                plain = _closed_form_root(k, n, False)
                strict = _closed_form_root(k, n, True)
                if plain is not None and strict is not None:
                    assert strict > plain

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _closed_form_root(5, 1, False)
        with pytest.raises(ValueError):
            _closed_form_root(0, 3, False)

    @pytest.mark.parametrize("function,args,message", [
        (condition_margin, (0, Threshold(7, 5), (2, 1)), "alphabet size must be positive"),
        (rational_witness, (0, Threshold(7, 5)), "alphabet size must be positive"),
        (_closed_form_root, (20, 0, True), "need n >= 2, got 0"),
        (_closed_form_root, (0, 3, False), "alphabet size must be positive"),
    ])
    def test_every_function_of_k_and_n_refuses_the_same_pairs(self, function, args, message):
        with pytest.raises(ValidationError, match=message):
            function(*args)


class TestRationalWitness:
    def test_close_below_root_and_exact(self):
        for k, n, strict in ((20, 3, False), (7, 3, False), (10, 3, True), (12, 4, True)):
            root = isqrt_witness(k, n, strict, 80)  # within 2**-81 below the root
            w = witness(k, dejean(n, strict), 30)
            assert 1 < w <= root
            assert root - w < Fraction(1, 2 ** 30)
            assert margin(k, dejean(n, strict), w) >= 0
        # exact: one step of 2**-p above the witness is already past the root
        for n in range(2, 8):
            for k in range(n + 1, 80):
                for strict in (False, True):
                    if isqrt_witness(k, n, strict, 1) is None:
                        continue
                    t = dejean(n, strict)
                    for bits in (1, 7, 40):
                        w = witness(k, t, bits)
                        assert margin(k, t, w) >= 0
                        assert margin(k, t, w + Fraction(1, 2 ** bits)) < 0

    def test_none_exactly_when_root_is_none(self):
        # (1, 5): b = -2 and c = 1, a discriminant of 0 and a root of -1, not above 1.
        for k, n, strict in ((2, 2, True), (3, 3, False), (10, 6, False), (2, 2, False),
                             (1, 5, False)):
            assert isqrt_witness(k, n, strict, 40) is None
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
                    assert (isqrt_witness(k, n, strict, 1) is None) == none, (k, n, strict)

    def test_equals_the_isqrt_formula_at_dejean(self):
        # At n/(n-1) the bisection's last grid point with g >= 0 is the closed form's, the
        # rounded-down integer square root, and g is the quadratic's slack.
        for n in range(2, 9):
            for strict in (False, True):
                t = dejean(n, strict)
                for k in (*range(1, 40), 50, 100, 202, 1000, 2 * 10**154):
                    for bits in (1, 10, 40):
                        w = witness(k, t, bits)
                        assert w == isqrt_witness(k, n, strict, bits), (k, n, strict, bits)
                        if w is not None:
                            base = k + 1 if strict else k
                            assert margin(k, t, w) == base - (n - 1) * w / (w - 1) - w
        assert witness(10**200, dejean(3)) == isqrt_witness(10**200, 3, False, 40)

    @pytest.mark.parametrize("k,beta,root,length", [
        (5, "7/4", "3.520722", 14), (8, "10/7", "5.525063", 12), (20, "7/5", "17.824850", 10),
        (3, "5/2", "2.337115", 16), (3, "3", "2.532089", 14), (3, "7/3+", "2.329913", 16),
    ])
    def test_witnesses_beyond_dejean(self, k, beta, root, length):
        t = Threshold.parse(beta)
        x = witness(k, t)
        assert f"{float(x):.6f}" == root and (x * 2 ** 41).denominator == 1
        assert margin(k, t, x) >= 0 > margin(k, t, x + Fraction(1, 2 ** 41))
        cert = certify_series(count_free(k, t, length, "canonical"))
        pair = (cert.x_witness_num, cert.x_witness_den)
        assert (cert.k, cert.threshold, pair) == (k, t, rational_witness(k, t))
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
            values = [witness(k, dejean(n, strict), bits) for bits in (10, 20, 30, 40)]
            for a, b in zip(values, values[1:]):
                assert a <= b

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            rational_witness(20, dejean(3), precision_bits=0)

    @pytest.mark.parametrize("x", [(1, 1), (1, 2), (-3, 1), (2, 2)])
    def test_margin_refuses_a_witness_not_above_1(self, x):
        with pytest.raises(ValidationError, match="witness must exceed 1"):
            condition_margin(20, dejean(3), x)

    @pytest.mark.parametrize("x", [(3, 0), (-3, -2), (3, -2)])
    def test_margin_refuses_a_denominator_below_1(self, x):
        with pytest.raises(ValidationError, match="witness denominator must be positive"):
            condition_margin(20, dejean(3), x)

    def test_margin_takes_a_pair_in_any_terms(self):
        assert condition_margin(20, dejean(3), (34, 2)) == condition_margin(20, dejean(3), (17, 1))


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
            closed = 1 - x - margin(1, t, x)
            direct = sum(x ** (1 - (min_violation_length(j, t) - j))
                         for j in range(1, covers * q + 1))
            assert 0 < closed - direct <= q * x * x ** (-covers * s) / (1 - x ** -s), (x, t)

    @pytest.mark.parametrize("strict", [False, True], ids=["", "plus"])
    def test_equals_an_independent_reference(self, strict):
        # The search and the margin share one integer evaluation (bounds._scaled); the reference
        # shares nothing with it: Fractions throughout, each t_j from the oracle's exponent rule.
        thresholds = [Threshold(p, q, strict) for q in range(1, 7) for p in range(q + 1, 3 * q + 1)
                      if math.gcd(p, q) == 1]
        signs = set()
        for t in thresholds:
            for k in (1, 2, 5, 20, 101):
                w = witness(k, t)
                grid = [] if w is None else [w, w + Fraction(1, 2 ** 41)]
                for x in (*grid, Fraction(3, 2), Fraction(7)):
                    g = margin(k, t, x)
                    assert g == reference_margin(k, t, x), (k, t, x)
                    signs.add((g > 0) - (g < 0))
                if w is not None:
                    assert margin(k, t, w + Fraction(1, 2 ** 41)) < 0 <= margin(k, t, w)
        assert {-1, 1} <= signs

    def test_a_zero_margin_reads_0_over_1(self):
        # (k, n) = (6, 3): the root is exactly 3, a grid point, so 3 is the witness, at margin 0.
        assert reference_margin(6, dejean(3), Fraction(3)) == 0
        cert = certify_series(count_free(6, dejean(3), 6))
        assert (cert.x_witness_num, cert.x_witness_den) == (3, 1)
        assert (cert.condition_margin_num, cert.condition_margin_den) == (0, 1)


def reference_margin(k, t, x):
    """g(x) = k - x - sum_{j<=q} x^(1-t_j) / (1 - x^-s) in Fractions, t_j + j the least length
    that tests/oracles.py forbids at period j."""
    total = Fraction(0)
    for j in range(1, t.den + 1):
        length = j + 1
        while not forbidden_exponent(length, j, t.num, t.den, t.strict):
            length += 1
        total += x ** (1 - (length - j))
    return k - x - total / (1 - x ** -(t.num - t.den))


class TestCertify:
    def test_certificate_fields_and_ratios(self):
        t = Threshold.dejean(3)
        series = count_free(20, t, 10, "canonical")
        cert = certify(20, 3, False, series)
        assert cert.verified_up_to == 9
        assert cert.condition_margin_num >= 0 and cert.condition_margin_den > 0
        assert cert.series_digest == series.digest()
        x = Fraction(cert.x_witness_num, cert.x_witness_den)
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
        assert cert.condition_margin_num >= 0 and cert.verified_up_to == 7
        # the root is about k - 2 - 2/k
        assert k - 3 < Fraction(cert.x_witness_num, cert.x_witness_den) < k - 2

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

    def test_a_given_witness_is_a_pair_in_any_terms(self):
        t = Threshold(7, 5)
        series = count_free(20, t, 8)
        a, b = bounds._witness(20, t)
        cert = certify_series(series)
        assert certify_series(series, witness=(a, b)) == cert
        assert certify_series(series, witness=(3 * a, 3 * b)) == cert
        assert certify_series(series, witness=(-a, -b)) == cert
        assert (a, b) == rational_witness(20, t) == (cert.x_witness_num, cert.x_witness_den)

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
        monkeypatch.setattr("powfree.bounds.rational_witness", lambda *args: (19, 1))
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


def plain_or_plus(beta):
    return Threshold.parse(beta[:-1], True) if beta.endswith("+") else Threshold.parse(beta)


def tail_counts(t, largest):
    """[_, N_1, .., N_largest]: N_a periods j whose least forbidden length is j + a, by the oracle.

    A tail a >= j (p - q) / q bounds the periods that can have a <= largest.
    """
    counts = [0] * (largest + 1)
    for j in range(1, largest * t.den // (t.num - t.den) + 1):
        length = j + 1
        while not forbidden_exponent(length, j, t.num, t.den, t.strict):
            length += 1
        if length - j <= largest:
            counts[length - j] += 1
    return counts


class TestAsymptoticTarget:
    """The lower root's terms k + c_0 + c_1/k + ..., whose first two are report's target."""

    def test_values(self):
        table = {"3/2": (-2, -2, -6, -22), "4/3": (-3, -3, -12, -57), "5/4": (-4, -4, -20, -116),
                 "7/5": (-2, -3, -8, -32), "11/8": (-2, -3, -9, -35),
                 "19/17": (-8, -9, -80, -794), "3/2+": (-1, -2, -4, -12), "2": (-1, -1, -2, -5)}
        for beta, terms in table.items():
            series = lower_series(plain_or_plus(beta), 4)
            assert series == terms and all(type(c) is int for c in series), beta

    def test_root_stays_above_target_minus_curvature_term(self):
        # the 1/k^2 coefficient of the root expansion is n(1-n) = -6 at n=3,
        # so any constant above 6.5 works at these k; 5 would not
        for k in (50, 100, 200, 400):
            for strict in (False, True):
                c0, c1 = lower_series(dejean(3, strict), 2)
                root = isqrt_witness(k, 3, strict, 80)
                assert root >= k + c0 + Fraction(c1, k) - Fraction(7, k ** 2), (k, strict)


class TestTaylorCoefficients:
    """lower_series(t, r) is c_0..c_{r-1} of the witness root's expansion in 1/k,
    x = k + c_0 + c_1/k + ..., exact at every threshold."""

    def test_stated_coefficients(self):
        # c_0 = -N_1 and c_1 = -N_2 on every p/q in (1, 2) with q <= 10, in both readings.
        thresholds = [Threshold(p, q, strict) for q in range(2, 11) for p in range(q + 1, 2 * q)
                      if math.gcd(p, q) == 1 for strict in (False, True)]
        assert len(thresholds) == 62
        for t in thresholds:
            _, n1, n2 = tail_counts(t, 2)
            assert lower_series(t, 2) == (-n1, -n2), t

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 101])
    def test_against_symbolic_expansion(self, n):
        # u = x/k in y = 1/k, from the README's quadratics: c_i is the coefficient of y^(i+1).
        # At 101/100 the fifth term needs the periods up to 400, whose tails reach 4.
        y = sympy.symbols("y")
        for strict in (False, True):
            b, c = (1 + (3 - n) * y, y + y * y) if strict else (1 + (2 - n) * y, y)
            poly = sympy.series((b + sympy.sqrt(b * b - 4 * c)) / 2, y, 0, 6).removeO()
            terms = tuple(int(poly.coeff(y, d)) for d in range(1, 6))
            assert lower_series(dejean(n, strict), 5) == terms, (n, strict)

    def test_residual_scaled_by_k2_stays_bounded(self):
        c0, c1 = lower_series(dejean(3), 2)
        for k in (100, 1000, 10000):
            assert abs(isqrt_witness(k, 3, False, 80) - (k + c0 + Fraction(c1, k))) * k * k <= 10

    @pytest.mark.parametrize("beta", ["7/5", "11/8", "19/17", "3/2+", "5/2"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_scaled_residual_tends_to_the_next_term(self, beta, r):
        # k^r (root - the r-term sum) -> c_r; at 19/17, r = 2 it reads about -100, -89, -84, -82.
        t = plain_or_plus(beta)
        *head, c_r = lower_series(t, r + 1)
        scaled = [k ** r * (witness(k, t, 120) - k - sum(c * Fraction(k) ** -i
                                                         for i, c in enumerate(head)))
                  for k in (50, 100, 200, 400)]
        gaps = [abs(v - c_r) for v in scaled]
        assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == 4, (scaled, c_r)
        assert scaled == sorted(scaled) or scaled == sorted(scaled, reverse=True), (scaled, c_r)

    @pytest.mark.parametrize("terms", [0, -1])
    def test_rejects_fewer_than_one_term(self, terms):
        with pytest.raises(ValidationError, match="terms must be positive"):
            lower_series(dejean(3), terms)
