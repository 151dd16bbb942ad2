"""Growth lower-bound machinery.

A rational x > 1 satisfying

    k   - (n-1) * x/(x-1) >= x        (non-strict threshold n/(n-1))
    k+1 - (n-1) * x/(x-1) >= x        (strict threshold, the plus reading)

forces the count ratio C_{i+1}/C_i of threshold-free words to stay at or
above x, hence growth >= x.  For x > 1 the condition rearranges to a
quadratic:

    x^2 - (k+2-n) x + k     <= 0     (non-strict)
    x^2 - (k+3-n) x + (k+1) <= 0     (strict)

whose largest solution is the closed-form root.  Certification replaces the
irrational root with a rational witness just below it so that the condition
and every count ratio are checked in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import CountSeries
from .errors import LemmaViolationError, NoWitnessError, ValidationError
from .words import Threshold, _Value

__all__ = [
    "BoundCertificate",
    "closed_form_root",
    "rational_witness",
    "condition_margin",
    "certify",
    "asymptotic_target",
    "taylor_coefficients",
]


def _quadratic(k: int, n: int, strict: bool) -> tuple[int, int]:
    """Coefficients (b, c) of x^2 - b x + c <= 0, the witness condition."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValidationError(f"need k >= 1, got {k}")
    if strict:
        return k + 3 - n, k + 1
    return k + 2 - n, k


def condition_margin(k: int, n: int, strict: bool, x: Fraction) -> Fraction:
    """Exact slack of the witness condition at x; nonnegative iff x qualifies."""
    x = Fraction(x)
    if x <= 1:
        raise ValidationError("witness must exceed 1")
    base = k + 1 if strict else k
    return base - (n - 1) * x / (x - 1) - x


def closed_form_root(k: int, n: int, strict: bool = False) -> float | None:
    """Largest real x satisfying the witness condition with equality.

    None when the integer discriminant is negative or the root does not
    exceed 1: no exponential lower bound is available from the condition at
    these parameters (informative, not an error).  One floating square root
    over the exact discriminant; relative error <= 1e-12.
    """
    b, c = _quadratic(k, n, strict)
    disc = b * b - 4 * c
    if disc < 0:
        return None
    root = (b + math.sqrt(disc)) / 2.0
    if root <= 1.0:
        return None
    return root


def rational_witness(k: int, n: int, strict: bool = False,
                     precision_bits: int = 40) -> Fraction | None:
    """Exact rational witness within 2**-precision_bits below the root.

    The root is (b + sqrt(disc)) / 2; rounding sqrt(disc) down to a multiple
    of 2**-precision_bits with an integer square root keeps the result
    between the parabola vertex b/2 and the root, so it satisfies the
    condition exactly and never exceeds the true root; more precision bits
    only ever move it upward.  None exactly when closed_form_root is None.
    """
    if precision_bits < 1:
        raise ValidationError("precision_bits must be positive")
    if closed_form_root(k, n, strict) is None:
        return None
    b, c = _quadratic(k, n, strict)
    scale = 2 ** precision_bits
    return Fraction(b * scale + math.isqrt((b * b - 4 * c) * scale * scale), 2 * scale)


class BoundCertificate(_Value):
    """A machine-checked growth lower bound for the n/(n-1) language over k letters.

    Every field was verified in exact rational arithmetic: the witness
    satisfies its condition with the stated nonnegative margin, and
    C_{i+1} >= x_witness * C_i held for every 1 <= i <= verified_up_to of
    the count series identified by series_digest.
    """

    __slots__ = ("k", "n", "strict", "x_witness", "condition_margin", "verified_up_to",
                 "series_digest")
    k: int
    n: int
    strict: bool
    x_witness: Fraction
    condition_margin: Fraction
    verified_up_to: int
    series_digest: str


def certify(k: int, n: int, strict: bool, series: CountSeries,
            precision_bits: int = 40) -> BoundCertificate:
    """Check C_{i+1} >= x * C_i exactly across the whole series.

    A failed ratio raises LemmaViolationError: the inequality is guaranteed
    once the witness condition holds, so failure means the counts (or the
    witness) are wrong.  This is the toolkit's strongest self-test.
    """
    expected = Threshold.dejean(n, strict)
    if series.k != k or series.threshold != expected or series.tail_max is not None:
        raise ValidationError(
            f"series is for k={series.k}, threshold {series.threshold}, "
            f"tail_max={series.tail_max}; expected k={k}, threshold {expected}, unrestricted")
    if series.max_length < 2:
        raise ValidationError("series too short to certify (need counts up to length 2)")
    x = rational_witness(k, n, strict, precision_bits)
    if x is None:
        raise NoWitnessError(
            f"no witness: the condition admits no x > 1 at k={k}, n={n}, "
            f"{'strict' if strict else 'non-strict'}")
    margin = condition_margin(k, n, strict, x)
    if margin < 0:
        raise LemmaViolationError(f"witness {x} fails its own condition (margin {margin})")
    counts = series.counts
    for i in range(1, series.max_length):
        if counts[i + 1] * x.denominator < x.numerator * counts[i]:
            raise LemmaViolationError(
                f"ratio check failed at i={i}: C_{i + 1}={counts[i + 1]} < "
                f"{x} * C_{i}={counts[i]} (k={k}, n={n}, strict={strict}); "
                f"this indicates a counting bug")
    return BoundCertificate(
        k=k, n=n, strict=strict, x_witness=x, condition_margin=margin,
        verified_up_to=series.max_length - 1, series_digest=series.digest())


def asymptotic_target(k: int, n: int, strict: bool = False) -> float:
    """The conjectured growth value with the order-1/k^2 term dropped."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValidationError(f"need k >= 1, got {k}")
    base = k + 2 - n if strict else k + 1 - n
    return base - (n - 1) / k


def taylor_coefficients(n: int) -> tuple[int, int, int]:
    """First three series coefficients at 0 of the scaled root function.

    The non-strict root equals k * f(1/k) with
    f(y) = (1 + (2-n) y + sqrt(1 - 2 n y + (n-2)^2 y^2)) / 2, whose
    expansion starts 1 + (1-n) y + (1-n) y^2.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    return (1, 1 - n, 1 - n)
