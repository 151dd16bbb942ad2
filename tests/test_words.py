"""Detection layer: thresholds, witnesses, minimal windows."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfree import (
    Threshold,
    ViolationWitness,
    Word,
    extension_ok,
    find_violation,
    min_violation_length,
)
from powfree.words import _forbidden_next, _suffix_violation, _window_checks

from oracles import all_violations, is_free

DEJEAN_THRESHOLDS = [Threshold.dejean(n, s) for n in (2, 3, 4, 5) for s in (False, True)]
SCAN_THRESHOLDS = DEJEAN_THRESHOLDS + [Threshold(7, 4), Threshold(7, 4, True), Threshold(3)]
# Letter sets whose letters take one, two, three and six bytes, with values
# that differ only in a low byte, only in a high byte, or share no byte.
ALPHABETS = [
    (1, 2, 3, 4, 5),
    (1, 255, 256, 257, 512),
    (256, 1, 257, 511, 65535),
    (65536, 65537, 1, 256, 70000),
    (2**40, 2**40 + 1, 2**40 + 256, 3, 65536),
]


def oracle_first_violation(letters, t):
    """Smallest end index, then smallest period, then smallest length."""
    hits = all_violations(letters, t.num, t.den, t.strict)
    if not hits:
        return None
    return min(hits, key=lambda v: (v[0] + v[2], v[1], v[2]))


def scan_by_end(letters, t):
    """First forbidden power by end index: the minimal-window test at every end."""
    pairs = _window_checks(t, len(letters))
    for end in range(2, len(letters) + 1):
        hit = _suffix_violation(letters, end, pairs)
        if hit is not None:
            j, m = hit
            return end - m, j, m
    return None


class TestThreshold:
    def test_reduces_to_lowest_terms(self):
        assert Threshold(6, 4) == Threshold(3, 2)
        assert Threshold(4, 2).num == 2 and Threshold(4, 2).den == 1

    @pytest.mark.parametrize("num,den", [(1, 1), (2, 3), (3, 3), (0, 1)])
    def test_rejects_bounds_not_above_one(self, num, den):
        with pytest.raises(ValueError):
            Threshold(num, den)

    def test_parse(self):
        assert Threshold.parse("3/2") == Threshold(3, 2)
        assert Threshold.parse("2") == Threshold(2)
        assert Threshold.parse("3/2+") == Threshold(3, 2, True)
        assert Threshold.parse("7/5", strict=True).strict
        with pytest.raises(ValueError):
            Threshold.parse("three halves")

    def test_str(self):
        assert str(Threshold(3, 2)) == "3/2"
        assert str(Threshold(2)) == "2"
        assert str(Threshold(7, 4, True)) == "7/4+"

    def test_dejean(self):
        assert Threshold.dejean(3) == Threshold(3, 2)
        assert Threshold.dejean(5, True) == Threshold(5, 4, True)
        with pytest.raises(ValueError):
            Threshold.dejean(1)

    def test_forbids_uses_exact_comparison(self):
        t = Threshold(2)
        assert t.forbids(8, 4)
        assert not t.forbids(7, 4)
        assert not Threshold(2, 1, True).forbids(8, 4)  # exponent exactly 2
        assert Threshold(3, 2).forbids(3, 2)
        assert not Threshold(3, 2, True).forbids(3, 2)
        assert not t.forbids(4, 4)  # exponent 1 is never a repetition

    def test_extended_order_key(self):
        keys = [Threshold(3, 2).order_key(), Threshold(3, 2, True).order_key(),
                Threshold(2).order_key(), Threshold(2, 1, True).order_key()]
        assert keys == sorted(keys)
        assert len(set(keys)) == 4


class TestWord:
    def test_from_text(self):
        w = Word.from_text("az")
        assert w.letters == (1, 26) and w.k == 26
        assert Word.from_text("AbC").letters == (1, 2, 3)
        with pytest.raises(ValueError):
            Word.from_text("a1")

    def test_letter_range_checked(self):
        with pytest.raises(ValueError):
            Word((1, 5), k=4)
        with pytest.raises(ValueError):
            Word((0,), k=3)
        with pytest.raises(ValueError):
            Word((), k=0)
        assert len(Word((), k=1)) == 0


class TestMinViolationLength:
    def test_examples(self):
        assert min_violation_length(2, Threshold(3, 2)) == 3
        assert min_violation_length(1, Threshold(2)) == 2
        assert min_violation_length(3, Threshold(2, 1, True)) == 7

    def test_matches_ceiling_and_floor_forms(self):
        for n in (2, 3, 4, 5):
            for j in range(1, 1001):
                tail_plain = -((-j) // (n - 1))  # ceil(j/(n-1))
                assert min_violation_length(j, Threshold.dejean(n)) == j + tail_plain
                assert min_violation_length(j, Threshold.dejean(n, True)) == j + j // (n - 1) + 1

    @pytest.mark.parametrize("t", DEJEAN_THRESHOLDS + [Threshold(7, 4), Threshold(7, 4, True)])
    def test_is_least_forbidden_length(self, t):
        for j in range(1, 201):
            length = j + 1
            while not t.forbids(length, j):
                length += 1
            assert min_violation_length(j, t) == length

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            min_violation_length(0, Threshold(2))


class TestFindViolation:
    def test_square_in_hotshots(self):
        v = find_violation(Word.from_text("hotshots"), Threshold(2))
        assert (v.start, v.period, v.length) == (0, 4, 8)
        assert v.exponent == 2

    def test_minimize_is_square_free(self):
        assert find_violation(Word.from_text("minimize"), Threshold(2)) is None

    def test_aba_at_three_halves(self):
        v = find_violation(Word.from_text("aba"), Threshold(3, 2))
        assert (v.period, v.length) == (2, 3)
        assert v.exponent == Fraction(3, 2)
        assert find_violation(Word.from_text("aba"), Threshold(3, 2, True)) is None

    def test_exhaustive_against_bruteforce(self):
        grids = [(2, 8), (3, 6), (4, 4)]
        for k, max_len in grids:
            for t in DEJEAN_THRESHOLDS:
                for length in range(max_len + 1):
                    for letters in product(range(1, k + 1), repeat=length):
                        expected = oracle_first_violation(letters, t)
                        got = find_violation(Word(letters, k), t)
                        if expected is None:
                            assert got is None, (letters, t)
                        else:
                            assert got is not None, (letters, t)
                            assert (got.start, got.period, got.length) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=10),
           st.sampled_from(DEJEAN_THRESHOLDS))
    def test_sampled_against_bruteforce(self, letters, t):
        expected = oracle_first_violation(tuple(letters), t)
        got = find_violation(Word(tuple(letters), 4), t)
        if expected is None:
            assert got is None
        else:
            assert (got.start, got.period, got.length) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(3, 5),
           st.sampled_from(SCAN_THRESHOLDS), st.sampled_from(ALPHABETS), st.integers(0, 60))
    def test_long_words_against_scan_by_end(self, rng, k, t, alphabet, plant):
        # Grow a t-free word of up to 400 letters over k letters, backing off
        # a few letters at a dead end, so that powers can end far in; then
        # copy a block of it elsewhere to plant a long repetition.
        n = rng.randint(0, 400)
        pairs = _window_checks(t, n + 1)
        w = []
        for _ in range(3 * n):
            if len(w) >= n:
                break
            allowed = sorted(set(range(1, k + 1)) - _forbidden_next(w, pairs))
            if allowed:
                w.append(rng.choice(allowed))
            else:
                del w[-rng.randint(1, 4):]
        if plant:
            s, at = rng.randint(0, len(w)), rng.randint(0, len(w))
            w[at:at] = w[s:s + plant]
        letters = tuple(alphabet[a - 1] for a in w)
        got = find_violation(Word(letters, max(alphabet)), t)
        expected = scan_by_end(letters, t)
        assert (None if got is None else (got.start, got.period, got.length)) == expected

    def test_zero_bytes_across_a_letter_boundary_are_no_match(self):
        # As two-byte letters 1 = 00 01, 257 = 01 01 and 256 = 01 00, so the
        # period-1 differences of 1, 257, 256 are 01 00 and 00 01: two zero
        # bytes in a row that belong to different letters.  Only "2 2" repeats.
        letters = (1, 257, 256, 2, 2)
        v = find_violation(Word(letters, 257), Threshold(2))
        assert (v.start, v.period, v.length) == (3, 1, 2) == scan_by_end(letters, Threshold(2))
        assert find_violation(Word(letters[:4], 257), Threshold(2)) is None

    def test_tie_at_the_earliest_end_goes_to_the_smaller_period(self):
        # 2,1,2 (period 2) and 1,2,3,4,2,1,2 (period 5) both end the word,
        # and neither starts it.
        letters = (5, 1, 2, 3, 4, 2, 1, 2)
        t = Threshold(4, 3, True)
        v = find_violation(Word(letters, 5), t)
        assert (v.start, v.period, v.length) == (5, 2, 3) == scan_by_end(letters, t)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=12),
           st.permutations(range(1, 6)),
           st.sampled_from(DEJEAN_THRESHOLDS))
    def test_renaming_invariance(self, letters, perm, t):
        renamed = tuple(perm[a - 1] for a in letters)
        v1 = find_violation(Word(tuple(letters), 5), t)
        v2 = find_violation(Word(renamed, 5), t)
        if v1 is None:
            assert v2 is None
        else:
            assert (v1.start, v1.period, v1.length) == (v2.start, v2.period, v2.length)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=10))
    def test_monotone_in_extended_order(self, letters):
        ordered = sorted(DEJEAN_THRESHOLDS, key=Threshold.order_key)
        w = Word(tuple(letters), 4)
        free = [find_violation(w, t) is None for t in ordered]
        # once free under a threshold, free under every larger one
        for a, b in zip(free, free[1:]):
            assert b or not a


class TestViolationWitness:
    def test_tail_length(self):
        assert ViolationWitness(0, 4, 8, Fraction(2)).tail_length == 4
        assert ViolationWitness(0, 2, 3, Fraction(3, 2)).tail_length == 1
        assert ViolationWitness(0, 3, 7, Fraction(7, 3)).tail_length == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ViolationWitness(0, 4, 4, Fraction(1))
        with pytest.raises(ValueError):
            ViolationWitness(0, 2, 4, Fraction(3, 2))
        with pytest.raises(ValueError):
            ViolationWitness(-1, 2, 4, Fraction(2))


class TestExtensionOk:
    def test_examples(self):
        t = Threshold(3, 2)
        assert not extension_ok(Word.from_text("aba"), t)
        assert extension_ok(Word.from_text("abc"), t)

    def test_agrees_with_full_detection_on_free_prefixes(self):
        grids = [(2, 8), (3, 6), (4, 4)]
        for k, max_len in grids:
            for t in DEJEAN_THRESHOLDS:
                for length in range(1, max_len + 1):
                    for letters in product(range(1, k + 1), repeat=length):
                        if not is_free(letters[:-1], t.num, t.den, t.strict):
                            continue
                        w = Word(letters, k)
                        assert extension_ok(w, t) == (find_violation(w, t) is None)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=11),
           st.sampled_from(DEJEAN_THRESHOLDS))
    def test_sampled_agreement_on_free_prefixes(self, letters, t):
        letters = tuple(letters)
        if not is_free(letters[:-1], t.num, t.den, t.strict):
            return
        w = Word(letters, 4)
        assert extension_ok(w, t) == (find_violation(w, t) is None)


class TestForbiddenNext:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=40),
           st.sampled_from(SCAN_THRESHOLDS + [Threshold(5, 2), Threshold(3, 1, True)]),
           st.sampled_from([None, 1, 2, 3]))
    def test_matches_per_letter_suffix_test(self, draws, t, tail_max):
        pairs = _window_checks(t, len(draws) + 1, tail_max)
        w = []
        for a in draws:  # keep the draws that leave the prefix free
            w.append(a)
            if _suffix_violation(w, len(w), pairs) is not None:
                w.pop()
        expected = {a for a in range(1, 6) if _suffix_violation(w + [a], len(w) + 1, pairs)}
        assert _forbidden_next(w, pairs) == expected
