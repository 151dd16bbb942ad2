"""Growth-rate estimation, the extension-census audit, and exploratory reports.

The audit replays the counting argument behind the certificates: among
one-letter extensions of free words, those that leave the language are
classified by the period of the minimal forbidden window ending at the new
letter, and each class is dominated by the number of free words at the
index the window's tail rewinds to.  One walk over free canonical patterns,
by the counter's level step, holds the levels up to length i-1 and streams
length i through one census pass: each rejected extension is tallied into
its period classes as it is found, and checked against the previous member
of each class for the suffix-determination (injectivity) check, so no list
of rejected extensions is kept.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bounds import BoundCertificate, closed_form_root, rational_witness
from .bounds import asymptotic_target
from .counting import DEFAULT_NAIVE_BUDGET, CountSeries, _grow, count_free, count_tail_restricted
from .errors import BudgetExceededError, LemmaViolationError, ValidationError
from .words import Threshold, _Value, _suffix_violation, _window_checks

__all__ = [
    "GrowthEstimate",
    "growth_estimate",
    "FjAuditRow",
    "FjAudit",
    "fj_audit",
    "suffix_determination_check",
    "ReportRow",
    "REPORT_COLUMNS",
    "conjecture_report",
]


class GrowthEstimate(_Value):
    """A bracket around the growth rate of a counted language.

    upper is min over i of C_i**(1/i), a true upper bound for factorial
    languages by submultiplicativity; lower is the certified witness when
    one is supplied, otherwise the smallest observed count ratio.
    """

    __slots__ = ("k", "threshold", "lower", "upper", "ratios")
    k: int
    threshold: Threshold
    lower: Fraction
    upper: float
    ratios: tuple[Fraction, ...]


def growth_estimate(series: CountSeries, cert: BoundCertificate | None = None) -> GrowthEstimate:
    if len(series.counts) < 3:
        raise ValidationError("series too short: need counts up to length 2 at least")
    upper = math.inf
    for i in range(1, len(series.counts)):
        c = series.counts[i]
        root = 0.0 if c == 0 else math.exp(math.log(c) / i)
        upper = min(upper, root)
    ratios = series.ratios()
    if cert is not None:
        lower = cert.x_witness
    elif ratios:
        lower = min(ratios)
    else:
        lower = Fraction(0)
    return GrowthEstimate(k=series.k, threshold=series.threshold,
                          lower=lower, upper=upper, ratios=ratios)


class FjAuditRow(_Value):
    __slots__ = ("period", "count", "bound")
    period: int
    count: int  # rejected extensions whose minimal forbidden window has this period
    bound: int  # free words at the index the window's tail rewinds to


class FjAudit(_Value):
    __slots__ = ("k", "n", "strict", "i", "rows", "f_total", "c_i", "c_next",
                 "suffix_determined")
    k: int
    n: int
    strict: bool
    i: int
    rows: tuple[FjAuditRow, ...]
    f_total: int  # directly enumerated rejected extensions
    c_i: int
    c_next: int
    suffix_determined: bool  # each period class maps injectively to shortened prefixes


def _census(k: int, end: int, pairs, leaves):
    """One pass over the free (pattern, distinct) leaves of length end-1.

    Each old letter a that leaves the language extends a leaf w to a rejected
    v = w + (a,), weighing perm(k, d) words.  Returns f_total, the weight per
    (period, window) pair whose window ends at v's last letter, and whether
    every class maps injectively by dropping the tail, v -> v[:end-(m-j)].
    The leaves come in lexicographic order, so the members of a class that
    share a shortened prefix s all lie in s's subtree and arrive next to each
    other: comparing each member's prefix with the previous member's suffices.
    """
    f_total = 0
    counts = [0] * len(pairs)
    last = [None] * len(pairs)
    injective = True
    for w, d in leaves:
        for a in range(1, d + 1):
            v = w + (a,)
            if _suffix_violation(v, end, pairs) is None:
                continue
            weight = math.perm(k, d)
            f_total += weight
            for c, pair in enumerate(pairs):
                if _suffix_violation(v, end, (pair,)) is not None:
                    counts[c] += weight
                    shortened = v[:end - (pair[1] - pair[0])]
                    injective = injective and shortened != last[c]
                    last[c] = shortened
    return f_total, counts, injective


def fj_audit(k: int, n: int, strict: bool, i: int,
             budget: int = DEFAULT_NAIVE_BUDGET) -> FjAudit:
    """Census of rejected one-letter extensions, by window period.

    Walks the free canonical patterns once (d distinct letters weigh perm(k, d)
    words), holding the levels up to length i-1 and streaming length i through
    one census pass (_census), then counts the free words to length i+1.  Per
    period j it counts the rejected extensions whose period-j window ends at
    the last letter and pairs each with the count it must not exceed.
    suffix_determined: dropping the tail maps each class injectively, over
    patterns iff over words (renaming is a bijection in a class; a tail copies
    earlier letters).  Raises ValidationError if i < 0; BudgetExceededError, before
    counting, if a step to length L could write len(level) * k * L > budget
    letters; and LemmaViolationError if the balance k*C_i - C_{i+1} = f_total,
    a per-period bound or the census coverage fails, checked in that order.
    """
    if i < 0:
        raise ValidationError("audit prefix length i must be at least 0")
    t = Threshold.dejean(n, strict)
    end = i + 1
    pairs = _window_checks(t, end)
    leaves = [((), 0)]
    for length in range(1, i + 1):
        if len(leaves) * k * length > budget:
            raise BudgetExceededError(f"audit walk: {len(leaves) * k * length} pattern letters "
                                      f"exceed the work budget {budget}", parameter="len")
        leaves = _grow(k, pairs, leaves)
        if length < i:
            leaves = list(leaves)
    f_total, class_counts, injective = _census(k, end, pairs, leaves)
    counts = count_free(k, t, end, method="canonical").counts
    if k * counts[i] - counts[i + 1] != f_total:
        raise LemmaViolationError(
            f"extension balance failed: k*C_{i} - C_{i + 1} = "
            f"{k * counts[i] - counts[i + 1]} but {f_total} rejected extensions found")
    rows = []
    for (j, m), cnt in zip(pairs, class_counts):
        bound = counts[end - (m - j)]
        if cnt > bound:
            raise LemmaViolationError(
                f"period-{j} census {cnt} exceeds its bound C_{end - (m - j)} = {bound} "
                f"(k={k}, n={n}, strict={strict}, i={i})")
        rows.append(FjAuditRow(period=j, count=cnt, bound=bound))
    covered = sum(class_counts)
    if covered < f_total:
        raise LemmaViolationError(
            f"period census covers {covered} < {f_total} rejected extensions")
    return FjAudit(k=k, n=n, strict=strict, i=i, rows=tuple(rows),
                   f_total=f_total, c_i=counts[i], c_next=counts[i + 1],
                   suffix_determined=injective)


def suffix_determination_check(k: int, n: int, strict: bool, i: int,
                               budget: int = DEFAULT_NAIVE_BUDGET) -> bool:
    """Whether rejected extensions are recoverable from their shortened prefixes.

    Reads suffix_determined off the one census fj_audit takes (same errors).
    """
    return fj_audit(k, n, strict, i, budget).suffix_determined


class ReportRow(_Value):
    __slots__ = ("k", "n", "root", "root_plus", "target", "target_plus", "witness",
                 "witness_plus", "big_jump", "small_variation", "resid_times_k2",
                 "resid_plus_times_k2", "alpha_ratio", "alpha_prime_ratio")
    k: int
    n: int
    root: float | None
    root_plus: float | None
    target: float
    target_plus: float
    witness: Fraction | None
    witness_plus: Fraction | None
    big_jump: float | None         # root_plus - root, conjectured ~ 1
    small_variation: float | None  # root(k, n) - root_plus(k, n+1), conjectured ~ 1/k
    resid_times_k2: float | None   # (root - target) * k^2, bounded if the expansion holds
    resid_plus_times_k2: float | None
    alpha_ratio: float | None        # last count ratio of the full language
    alpha_prime_ratio: float | None  # same for the tail-restricted language


REPORT_COLUMNS = (
    "k", "n", "root", "root_plus", "target", "target_plus",
    "witness", "witness_plus", "big_jump", "small_variation",
    "resid_times_k2", "resid_plus_times_k2", "alpha_ratio", "alpha_prime_ratio",
)


def _last_ratio(series: CountSeries) -> float | None:
    if series.counts[-2] == 0:
        return None
    return series.counts[-1] / series.counts[-2]


def conjecture_report(n_values, k_values, max_length: int = 8, tail_max: int = 2,
                      *, workers: int = 1) -> list[ReportRow]:
    """Exploratory side-by-side of certified bounds, targets, and enumerations.

    No pass/fail semantics: the tabulated differences and scaled residuals
    are desk-scale probes of asymptotic statements, meant to be read, not
    asserted.
    """
    if max_length < 2:
        raise ValidationError("max_length must be at least 2")
    rows = []
    for n in sorted(set(n_values)):
        for k in sorted(set(k_values)):
            root = closed_form_root(k, n, False)
            root_plus = closed_form_root(k, n, True)
            witness = rational_witness(k, n, False) if root is not None else None
            witness_plus = rational_witness(k, n, True) if root_plus is not None else None
            target = asymptotic_target(k, n, False)
            target_plus = asymptotic_target(k, n, True)
            root_plus_next = closed_form_root(k, n + 1, True)
            t = Threshold.dejean(n)
            series = count_free(k, t, max_length, "canonical", workers=workers)
            series_prime = count_tail_restricted(k, t, tail_max, max_length,
                                                 "canonical", workers=workers)
            rows.append(ReportRow(
                k=k, n=n, root=root, root_plus=root_plus,
                target=target, target_plus=target_plus,
                witness=witness, witness_plus=witness_plus,
                big_jump=None if root is None or root_plus is None else root_plus - root,
                small_variation=None if root is None or root_plus_next is None
                else root - root_plus_next,
                resid_times_k2=None if root is None else (root - target) * k * k,
                resid_plus_times_k2=None if root_plus is None
                else (root_plus - target_plus) * k * k,
                alpha_ratio=_last_ratio(series),
                alpha_prime_ratio=_last_ratio(series_prime),
            ))
    return rows
