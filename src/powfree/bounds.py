"""Growth lower-bound machinery.

A rational x > 1 with g(x) = k - x - S(x) >= 0, S(x) = sum_j x^(1-t_j) over
the periods j >= 1 and t_j = min_violation_length(j, t) - j, keeps every
count ratio C_{i+1}/C_i of t-free words at or above x, so growth >= x (the
README derives it).  Certificates check it and every ratio exactly;
lower_series expands the root where g = 0 in 1/k, exactly, at every threshold.

One integer evaluation of g (_scaled) serves the witness search and the
margin.  An exact rational is a (num, den) pair of ints, returned in lowest
terms with den > 0; the series' coefficients are ints.  counting is bound
lazily and only the certificates' annotations name it, so the witness
search, condition_margin and lower_series run without it.
"""

from __future__ import annotations

import math

from . import counting
from .errors import LemmaViolationError, NoWitnessError, ValidationError
from .words import Threshold, _check_alphabet, _Value, min_violation_length

__all__ = [
    "BoundCertificate",
    "rational_witness",
    "condition_margin",
    "lower_series",
    "certify_series",
    "certify",
]


def _tails(t: Threshold) -> tuple[dict[int, int], int]:
    """{t_j: count of periods j <= q} and s = p - q; t_j <= u iff js <= uq (< if strict)."""
    q, s = t.den, t.num - t.den
    tails, j = {}, 1
    while j <= q:
        tj = min_violation_length(j, t) - j
        last = min(q, (tj * q - t.strict) // s)
        tails[tj], j = last - j + 1, last + 1
    return tails, s


def _terms(tails: dict[int, int], s: int, b: int) -> list[tuple[int, int]]:
    """(s + 1 - t_j, c_j b^t_j) per tail: the sum of _scaled at denominator b."""
    return [(s + 1 - tj, c * b ** tj) for tj, c in tails.items()]


def _scaled(k: int, s: int, b: int, terms: list[tuple[int, int]], a: int) -> tuple[int, int]:
    """(P, e) at x = a/b > 1, in integers: e = a^s - b^s > 0 and P = g(a/b) b e.

    x^(1-t_j) / (1 - x^-s) = a^(s+1-t_j) b^(t_j-1) / e, so P = (kb - a) e -
    sum_j a^(s+1-t_j) b^t_j, every exponent >= 0 (t_j <= s + 1); terms is
    _terms(tails, s, b).
    """
    e = a ** s - b ** s
    return (k * b - a) * e - sum(w * a ** p for p, w in terms), e


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with den > 0."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _text(num: int, den: int) -> str:
    """num/den as an error message spells it: num alone when den is 1."""
    return str(num) if den == 1 else f"{num}/{den}"


def condition_margin(k: int, t: Threshold, x: tuple[int, int]) -> tuple[int, int]:
    """Exact slack g(x) = k - x - S(x) of the witness condition at x = (num, den), den > 0,
    as a (num, den) pair in lowest terms; nonnegative iff x qualifies."""
    a, b = x
    _check_alphabet(k)
    if b < 1:
        raise ValidationError("witness denominator must be positive")
    if a <= b:
        raise ValidationError("witness must exceed 1")
    tails, s = _tails(t)
    p, e = _scaled(k, s, b, _terms(tails, s, b), a)
    return _reduced(p, b * e)


def rational_witness(k: int, t: Threshold, precision_bits: int = 40) -> tuple[int, int] | None:
    """The largest multiple of 2**-(precision_bits+1) in (1, k) where g >= 0, as a (num, den)
    pair in lowest terms, or None.

    g is strictly concave, so g >= 0 on one interval [r1, r2] of (1, k), maybe
    empty.  At x = m/D, D = 2**(precision_bits+1), P(m) = g D (m^s - D^s) is
    _scaled's integer.  One bisection on g's slope finds an m with P(m) >= 0,
    one on P's sign the last.
    """
    if precision_bits < 1:
        raise ValidationError("precision_bits must be positive")
    _check_alphabet(k)
    tails, s = _tails(t)
    d = 2 ** (precision_bits + 1)
    terms = _terms(tails, s, d)
    lo, hi = d + 1, k * d - 1  # the grid points in (1, k)
    while lo <= hi:
        mid = (lo + hi) // 2
        p, e = _scaled(k, s, d, terms, mid)
        if p >= 0:
            break
        # g rises from mid to mid+1, or the maximum is left
        p_next, e_next = _scaled(k, s, d, terms, mid + 1)
        lo, hi = (mid + 1, hi) if p_next * e > p * e_next else (lo, mid - 1)
    else:
        return None
    lo, hi = mid, k * d  # P(mid) >= 0 > P(kD)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _scaled(k, s, d, terms, mid)[0] >= 0 else (lo, mid)
    return _reduced(lo, d)


def lower_series(t: Threshold, terms: int) -> tuple[int, ...]:
    """c_0..c_{terms-1} of the root where g = 0, x = k + c_0 + c_1/k + ..., exactly.

    With y = 1/k and x = u/y, x = k - S(x) reads u = 1 - sum_j y^t_j u^(1-t_j),
    so u mod y^(r+1) needs only the periods with t_j <= r, counted per tail
    from t_{j+q} = t_j + s.  Each fixed-point round from u = 1 fixes one more
    coefficient of u, and c_i is that of y^(i+1): c_0 = -N_1 and c_1 = -N_2,
    N_t the number of periods with tail t.
    """
    if terms < 1:
        raise ValidationError("terms must be positive")
    tails, s = _tails(t)
    size = terms + 1
    count = [0] * size  # count[a] = N_a
    for tj, c in tails.items():
        for a in range(tj, size, s):
            count[a] += c
    u = [1] + [0] * terms
    for _ in range(terms):
        inverse = [1]  # 1/u mod y^size
        for d in range(1, size):
            inverse.append(-sum(u[i] * inverse[d - i] for i in range(1, d + 1)))
        power, u = [1] + [0] * terms, [1] + [0] * terms  # power = u^(1-a) of the last round
        for a in range(1, size):
            for d in range(a, size):
                u[d] -= count[a] * power[d - a]
            power = [sum(power[i] * inverse[d - i] for i in range(d + 1)) for d in range(size)]
    return tuple(u[1:])


def _witness(k: int, t: Threshold) -> tuple[int, int]:
    """rational_witness's pair, or NoWitnessError where none exists: decided before any count."""
    x = rational_witness(k, t)
    if x is None:
        raise NoWitnessError(f"no witness: the condition admits no x > 1 at k={k}, threshold {t}")
    return x


class BoundCertificate(_Value):
    """A machine-checked growth lower bound for a threshold's language over k letters.

    Every field was verified in exact rational arithmetic: the witness
    x_witness_num/x_witness_den satisfies its condition with the stated
    nonnegative margin condition_margin_num/condition_margin_den, both in
    lowest terms, and C_{i+1} >= x_witness * C_i held for every
    1 <= i <= verified_up_to of the count series identified by series_digest.
    """

    __slots__ = ("k", "threshold", "x_witness_num", "x_witness_den", "condition_margin_num",
                 "condition_margin_den", "verified_up_to", "series_digest")
    k: int
    threshold: Threshold
    x_witness_num: int
    x_witness_den: int
    condition_margin_num: int
    condition_margin_den: int
    verified_up_to: int
    series_digest: str


def certify_series(series: counting.CountSeries,
                   witness: tuple[int, int] | None = None) -> BoundCertificate:
    """Check C_{i+1} >= x * C_i exactly across the whole series, at its own k and threshold.

    x is witness when given, a (num, den) pair of ints, the one the caller's
    bounds._witness(k, t) returned, so a caller that searched first does not
    search again; its condition is checked either way.  A tail-restricted
    series is refused.  A failed ratio, guaranteed once the condition holds,
    raises LemmaViolationError: the counts are wrong.
    """
    k, t = series.k, series.threshold
    if series.tail_max is not None:
        raise ValidationError(f"series has tail_max={series.tail_max}; certify needs all words")
    if series.max_length < 2:
        raise ValidationError("series too short to certify (need counts up to length 2)")
    a, b = _witness(k, t) if witness is None else _reduced(*witness)
    m, d = condition_margin(k, t, (a, b))
    if m < 0:
        raise LemmaViolationError(f"witness {_text(a, b)} fails its own condition "
                                  f"(margin {_text(m, d)})")
    counts = series.counts
    for i in range(1, series.max_length):
        if counts[i + 1] * b < a * counts[i]:
            raise LemmaViolationError(
                f"ratio check failed at i={i}: C_{i + 1}={counts[i + 1]} < "
                f"{_text(a, b)} * C_{i}={counts[i]} (k={k}, threshold {t}); "
                f"this indicates a counting bug")
    return BoundCertificate(
        k=k, threshold=t, x_witness_num=a, x_witness_den=b, condition_margin_num=m,
        condition_margin_den=d, verified_up_to=series.max_length - 1,
        series_digest=series.digest())


def certify(k: int, n: int, strict: bool, series: counting.CountSeries) -> BoundCertificate:
    """certify_series of a series at k and Threshold.dejean(n, strict): the Dejean spelling
    that perfbench/make_expected.py calls positionally."""
    expected = Threshold.dejean(n, strict)
    if series.k != k or series.threshold != expected:
        raise ValidationError(f"series is for k={series.k}, threshold {series.threshold}; "
                              f"expected k={k}, threshold {expected}")
    return certify_series(series)
