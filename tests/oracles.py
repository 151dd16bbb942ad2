"""Brute-force reference implementations, independent of the package.

Everything here scans all factors of all words directly, except that
power_ending_at tries only the least forbidden length of each period, which
it works out from the threshold itself; nothing is shared with the library's
minimal-window machinery, so agreement is meaningful.
"""

from itertools import product


def forbidden_exponent(length: int, period: int, num: int, den: int, strict: bool) -> bool:
    if strict:
        return length * den > period * num
    return length * den >= period * num


def factor_is_power(letters, start: int, period: int, length: int) -> bool:
    return all(
        letters[t] == letters[t - period]
        for t in range(start + period, start + length)
    )


def all_violations(letters, num: int, den: int, strict: bool, tail_max=None):
    """Every (start, period, length) describing a forbidden power factor."""
    out = []
    n = len(letters)
    for start in range(n):
        for period in range(1, n - start):
            for length in range(period + 1, n - start + 1):
                if not forbidden_exponent(length, period, num, den, strict):
                    continue
                if tail_max is not None and length - period > tail_max:
                    continue
                if factor_is_power(letters, start, period, length):
                    out.append((start, period, length))
    return out


def is_free(letters, num: int, den: int, strict: bool, tail_max=None) -> bool:
    n = len(letters)
    for start in range(n):
        for period in range(1, n - start):
            for length in range(period + 1, n - start + 1):
                if not forbidden_exponent(length, period, num, den, strict):
                    continue
                if tail_max is not None and length - period > tail_max:
                    continue
                if factor_is_power(letters, start, period, length):
                    return False
    return True


def power_ending_at(letters, end: int, num: int, den: int, strict: bool, tail_max=None):
    """(period, length) of a forbidden power ending at letters[end-1], or None.

    The smallest such period wins, with the least forbidden length at that
    period: a longer forbidden power of one period ends in the shortest one.
    """
    for period in range(1, end):
        length = period * num // den + 1 if strict else -(-period * num // den)
        if length > end:
            break  # the least forbidden length never falls as the period grows
        if tail_max is not None and length - period > tail_max:
            continue
        if (letters[end - 1] == letters[end - 1 - period]
                and factor_is_power(letters, end - length, period, length)):
            return period, length
    return None


def count_series(k: int, num: int, den: int, strict: bool, max_length: int,
                 tail_max=None) -> list[int]:
    counts = [0] * (max_length + 1)
    counts[0] = 1
    for i in range(1, max_length + 1):
        counts[i] = sum(
            1 for w in product(range(1, k + 1), repeat=i)
            if is_free(w, num, den, strict, tail_max)
        )
    return counts
