"""Growth lower-bound machinery.

A rational x > 1 with g(x) = k - x - S(x) >= 0, S(x) = sum_j x^(1-t_j) over
the periods j >= 1 and t_j = min_violation_length(j, t) - j, keeps every
count ratio C_{i+1}/C_i of t-free words at or above x, so growth >= x (the
README derives it).  Certificates check it and every ratio exactly;
lower_series expands the root where g = 0 in 1/k, exactly, at every threshold.
"""

from __future__ import annotations

from fractions import Fraction

from .counting import CountSeries
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


def condition_margin(k: int, t: Threshold, x: Fraction) -> Fraction:
    """Exact slack k - x - S(x) of the witness condition at x; nonnegative iff x qualifies."""
    _check_alphabet(k)
    x = Fraction(x)
    if x <= 1:
        raise ValidationError("witness must exceed 1")
    tails, s = _tails(t)
    return k - x - sum(c * x ** (1 - tj) for tj, c in tails.items()) / (1 - x ** -s)


def rational_witness(k: int, t: Threshold, precision_bits: int = 40) -> Fraction | None:
    """The largest multiple of 2**-(precision_bits+1) in (1, k) where g >= 0, or None.

    g is strictly concave, so g >= 0 on one interval [r1, r2] of (1, k), maybe
    empty.  At x = m/D, D = 2**(precision_bits+1), g D (m^s - D^s) is the
    integer P(m) = (kD - m)(m^s - D^s) - sum_{j<=q} m^(s+1-t_j) D^t_j.  One
    bisection on g's slope finds an m with P(m) >= 0, one on P's sign the last.
    """
    if precision_bits < 1:
        raise ValidationError("precision_bits must be positive")
    _check_alphabet(k)
    tails, s = _tails(t)
    d = 2 ** (precision_bits + 1)
    terms = [(s + 1 - tj, c * d ** tj) for tj, c in tails.items()]

    def scaled(m: int) -> tuple[int, int]:  # (P(m), m^s - D^s)
        e = m ** s - d ** s
        return (k * d - m) * e - sum(w * m ** a for a, w in terms), e

    lo, hi = d + 1, k * d - 1  # the grid points in (1, k)
    while lo <= hi:
        mid = (lo + hi) // 2
        p, e = scaled(mid)
        if p >= 0:
            break
        p_next, e_next = scaled(mid + 1)  # g rises from mid to mid+1, or the maximum is left
        lo, hi = (mid + 1, hi) if p_next * e > p * e_next else (lo, mid - 1)
    else:
        return None
    lo, hi = mid, k * d  # P(mid) >= 0 > P(kD)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if scaled(mid)[0] >= 0 else (lo, mid)
    return Fraction(lo, d)


def lower_series(t: Threshold, terms: int) -> tuple[Fraction, ...]:
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
    return tuple(Fraction(c) for c in u[1:])


def _witness(k: int, t: Threshold) -> Fraction:
    """rational_witness, or NoWitnessError where none exists: decided before any count."""
    x = rational_witness(k, t)
    if x is None:
        raise NoWitnessError(f"no witness: the condition admits no x > 1 at k={k}, threshold {t}")
    return x


class BoundCertificate(_Value):
    """A machine-checked growth lower bound for a threshold's language over k letters.

    Every field was verified in exact rational arithmetic: the witness
    satisfies its condition with the stated nonnegative margin, and
    C_{i+1} >= x_witness * C_i held for every 1 <= i <= verified_up_to of
    the count series identified by series_digest.
    """

    __slots__ = ("k", "threshold", "x_witness", "condition_margin", "verified_up_to",
                 "series_digest")
    k: int
    threshold: Threshold
    x_witness: Fraction
    condition_margin: Fraction
    verified_up_to: int
    series_digest: str


def certify_series(series: CountSeries, witness: Fraction | None = None) -> BoundCertificate:
    """Check C_{i+1} >= x * C_i exactly across the whole series, at its own k and threshold.

    x is witness when given, the caller's rational_witness(k, t), so a caller
    that searched first does not search again; its condition is checked
    either way.  A tail-restricted series is refused.  A failed ratio,
    guaranteed once the condition holds, raises LemmaViolationError: the counts
    are wrong.
    """
    k, t = series.k, series.threshold
    if series.tail_max is not None:
        raise ValidationError(f"series has tail_max={series.tail_max}; certify needs all words")
    if series.max_length < 2:
        raise ValidationError("series too short to certify (need counts up to length 2)")
    x = _witness(k, t) if witness is None else witness
    margin = condition_margin(k, t, x)
    if margin < 0:
        raise LemmaViolationError(f"witness {x} fails its own condition (margin {margin})")
    counts = series.counts
    for i in range(1, series.max_length):
        if counts[i + 1] * x.denominator < x.numerator * counts[i]:
            raise LemmaViolationError(
                f"ratio check failed at i={i}: C_{i + 1}={counts[i + 1]} < "
                f"{x} * C_{i}={counts[i]} (k={k}, threshold {t}); "
                f"this indicates a counting bug")
    return BoundCertificate(
        k=k, threshold=t, x_witness=x, condition_margin=margin,
        verified_up_to=series.max_length - 1, series_digest=series.digest())


def certify(k: int, n: int, strict: bool, series: CountSeries) -> BoundCertificate:
    """certify_series of a series at k and Threshold.dejean(n, strict): the Dejean spelling
    that perfbench/make_expected.py calls positionally."""
    expected = Threshold.dejean(n, strict)
    if series.k != k or series.threshold != expected:
        raise ValidationError(f"series is for k={series.k}, threshold {series.threshold}; "
                              f"expected k={k}, threshold {expected}")
    return certify_series(series)
