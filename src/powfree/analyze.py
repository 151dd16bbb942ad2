"""The extension-census audit and exploratory reports.

The audit replays the counting argument behind the certificates, at any
threshold: among one-letter extensions of free words, those that leave the
language are classified by the period of the minimal forbidden window ending
at the new letter, and each class is dominated by the number of free words at
the index the window's tail rewinds to.  One walk over free canonical
patterns, by the counter's level step, holds the levels up to length i-1 and
streams length i through the census, one pass over the (period, window) pairs
per pattern: a pair rejects at most one old letter, so each hit is tallied
into its period class as it is found, and checked against the class's
previous member for the suffix-determination (injectivity) check, so no list
of rejected extensions is kept.

The report sets each Dejean threshold's float root, the largest root of the
README's quadratic, beside its witnesses and its target k + c_0 + c_1/k, the
first two terms of bounds.lower_series.
"""

from __future__ import annotations

import math

from . import bounds  # read at call time: the audit never runs it
from .counting import DEFAULT_NAIVE_BUDGET, CountSeries, _grow, count_free, count_tail_restricted
from .errors import BudgetExceededError, LemmaViolationError, ValidationError
from .words import Threshold, _check_alphabet, _Value, _window_checks

__all__ = [
    "FjAuditRow",
    "FjAudit",
    "fj_audit",
    "suffix_determination_check",
    "ReportRow",
    "REPORT_COLUMNS",
    "conjecture_report",
]


class FjAuditRow(_Value):
    __slots__ = ("period", "count", "bound")
    period: int
    count: int  # rejected extensions whose minimal forbidden window has this period
    bound: int  # free words at the index the window's tail rewinds to


class FjAudit(_Value):
    __slots__ = ("k", "threshold", "i", "rows", "f_total", "c_i", "c_next", "suffix_determined")
    k: int
    threshold: Threshold
    i: int
    rows: tuple[FjAuditRow, ...]
    f_total: int  # directly enumerated rejected extensions
    c_i: int
    c_next: int
    suffix_determined: bool  # each period class maps injectively to shortened prefixes


def _census(k: int, end: int, pairs, leaves):
    """One pass over the pairs (windows up to end) per free leaf w of length p = end-1.

    The pair (j, m) rejects the old letter w[p-j] iff m-j == 1 or the window's
    other letters already repeat, as in words._forbidden_next: at most one letter,
    an extension weighing perm(k, d) words.  Returns f_total, the weight of the
    distinct rejected extensions, the weight per pair, and whether every class
    maps injectively by dropping the tail, v -> v[:end-(m-j)] = w[:end-(m-j)].
    The leaves come in lexicographic order, so the members of a class that share
    a shortened prefix s all lie in s's subtree and arrive next to each other:
    comparing each member's prefix with the previous member's suffices.
    """
    p = end - 1
    f_total = 0
    counts = [0] * len(pairs)
    last = [None] * len(pairs)
    injective = True
    for w, d in leaves:
        weight = math.perm(k, d)
        bad = set()
        for c, (j, m) in enumerate(pairs):
            # Testing w[p-1] first rejects most longer windows before any slice is compared.
            if m - j == 1 or (w[p - 1] == w[p - 1 - j]
                              and w[p + 1 - m + j:p] == w[p + 1 - m:p - j]):
                bad.add(w[p - j])
                counts[c] += weight
                shortened = w[:end - (m - j)]
                injective = injective and shortened != last[c]
                last[c] = shortened
        f_total += weight * len(bad)
    return f_total, counts, injective


def fj_audit(k: int, t: Threshold, i: int, budget: int = DEFAULT_NAIVE_BUDGET) -> FjAudit:
    """Census of rejected one-letter extensions of t-free words, by window period.

    Any threshold t, Dejean's or not.  Walks the free canonical patterns once
    (d distinct letters weigh perm(k, d) words), holding the levels up to
    length i-1 and streaming length i through one census pass (_census), then
    counts the free words to length i+1.  Per period j it counts the rejected
    extensions whose period-j window ends at the last letter and pairs each
    with the count it must not exceed.  suffix_determined: dropping the tail
    maps each class injectively, over patterns iff over words (renaming is a
    bijection in a class; a tail copies earlier letters).  Raises
    ValidationError if i < 0; BudgetExceededError, before counting, if a step
    to length L could write len(level) * k * L > budget letters; and
    LemmaViolationError if the balance k*C_i - C_{i+1} = f_total or a
    per-period bound fails, checked in that order.  The classes cover every
    rejected extension, since it adds its weight to every pair it hits.
    """
    if i < 0:
        raise ValidationError("audit prefix length i must be at least 0")
    end = i + 1
    pairs = _window_checks(t, end)
    leaves = [((), 0)]
    for length in range(1, i + 1):
        if len(leaves) * k * length > budget:
            raise BudgetExceededError(f"audit walk: {len(leaves) * k * length} pattern letters "
                                      f"exceed the work budget {budget}")
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
                f"(k={k}, threshold {t}, i={i})")
        rows.append(FjAuditRow(period=j, count=cnt, bound=bound))
    return FjAudit(k=k, threshold=t, i=i, rows=tuple(rows),
                   f_total=f_total, c_i=counts[i], c_next=counts[i + 1],
                   suffix_determined=injective)


def suffix_determination_check(k: int, t: Threshold, i: int,
                               budget: int = DEFAULT_NAIVE_BUDGET) -> bool:
    """Whether rejected extensions are recoverable from their shortened prefixes.

    Reads suffix_determined off the one census fj_audit takes (same errors).
    """
    return fj_audit(k, t, i, budget).suffix_determined


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
    witness: str | None  # rational_witness as "num/den", den 1 included
    witness_plus: str | None
    big_jump: float | None         # root_plus - root, conjectured ~ 1
    small_variation: float | None  # root(k, n) - root_plus(k, n+1), conjectured ~ 1/k
    resid_times_k2: float | None   # (root - target) * k^2, bounded if the expansion holds
    resid_plus_times_k2: float | None
    alpha_ratio: float | None        # last count ratio of the full language
    alpha_prime_ratio: float | None  # same for the tail-restricted language


REPORT_COLUMNS = ReportRow._fields


def _last_ratio(series: CountSeries) -> float | None:
    if series.counts[-2] == 0:
        return None
    return series.counts[-1] / series.counts[-2]


def _closed_form_root(k: int, n: int, strict: bool) -> float | None:
    """report's float root: the largest real x with x^2 - b x + c = 0, the condition at n/(n-1).

    b, c = k+2-n, k (k+3-n, k+1 if strict), as the README states them.  None
    exactly when rational_witness is None: disc < 0 or b <= 2 (for disc >= 0
    the root exceeds 1 iff b > 2).  Else a float square root of the exact
    discriminant, relative error <= 1e-12; ValidationError above k ~ 1.3e154.
    The report check in perfbench/workloads.py recomputes it with this formula.
    """
    Threshold.dejean(n)
    _check_alphabet(k)
    b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
    disc = b * b - 4 * c
    if disc < 0 or b <= 2:
        return None
    try:
        return (b + math.sqrt(disc)) / 2.0
    except OverflowError:  # math.sqrt converts the discriminant to a float first
        raise ValidationError(f"the float root needs k below about 1.3e154, got k={k}") from None


def _witness_cell(k: int, t: Threshold) -> str | None:
    """report's witness cell: rational_witness as "num/den", den 1 included, or None."""
    x = bounds.rational_witness(k, t)
    return None if x is None else f"{x[0]}/{x[1]}"


def _target(k: int, terms: tuple[int, ...]) -> float:
    """k + c_0 + c_1/k from lower_series' first two terms, as one correctly rounded division."""
    c0, c1 = terms
    try:
        return (k * k + c0 * k + c1) / k
    except OverflowError:
        raise ValidationError(f"the float target needs n below about 1.8e308 (k={k})") from None


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
        t, t_plus = Threshold.dejean(n), Threshold.dejean(n, True)
        terms, terms_plus = bounds.lower_series(t, 2), bounds.lower_series(t_plus, 2)
        for k in sorted(set(k_values)):
            root = _closed_form_root(k, n, False)
            root_plus = _closed_form_root(k, n, True)
            target = _target(k, terms)
            target_plus = _target(k, terms_plus)
            root_plus_next = _closed_form_root(k, n + 1, True)
            series = count_free(k, t, max_length, "canonical", workers=workers)
            series_prime = count_tail_restricted(k, t, tail_max, max_length,
                                                 "canonical", workers=workers)
            rows.append(ReportRow(
                k=k, n=n, root=root, root_plus=root_plus,
                target=target, target_plus=target_plus,
                witness=_witness_cell(k, t), witness_plus=_witness_cell(k, t_plus),
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
