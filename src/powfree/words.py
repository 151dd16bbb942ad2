"""Domain types and exact fractional-power detection.

Letters are integer indices 1..k.  A factor w[s:e] is a power of period j
when w[t] == w[t-j] for every t in [s+j, e); its exponent is the rational
(e-s)/j.  Every exponent comparison below is an integer cross
multiplication; detection never touches floating point.

The window tests share one window list (_window_checks).  Growing a word a
letter at a time (the naive engine, the audit's census, extension_ok) tests
only the windows ending at the new letter (_suffix_violation); a pattern of
the counting walk or of the audit's level step tests, in one pass, the
windows ending at its next two letters (_forbidden_next_two).
A whole word (find_violation) is scanned one period at a time: O(n) bytes of
big-integer and bytes.find work in C per period, O(n^2/beta) bytes in all.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError

__all__ = [
    "Threshold",
    "Word",
    "ViolationWitness",
    "min_violation_length",
    "find_violation",
    "extension_ok",
]


class _Value:
    """Base of the immutable value types: fields bound once, then compared by value.

    A subclass names the fields it adds, in order, in __slots__ and the
    defaults of trailing ones in _defaults.  __post_init__ validates, and may
    normalise a field with object.__setattr__.  Plain slots instead of
    dataclasses keep inspect, ast and dis, and generated code, out of every
    start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with some fields changed, validated as a new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Threshold(_Value):
    """An exponent bound beta = num/den (> 1) with a strictness flag.

    strict=False forbids factors of exponent >= beta (beta-free reading);
    strict=True forbids only exponents strictly above beta (the beta-plus
    reading, which admits a strictly larger language).
    """

    __slots__ = ("num", "den", "strict")
    _defaults = {"den": 1, "strict": False}
    num: int
    den: int
    strict: bool

    def __post_init__(self):
        if self.num < 1 or self.den < 1:
            raise ValidationError(
                f"threshold must be a positive rational, got {self.num}/{self.den}")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)
        if self.num <= self.den:
            raise ValidationError(f"threshold must exceed 1, got {self.num}/{self.den}")

    @classmethod
    def dejean(cls, n: int, strict: bool = False) -> "Threshold":
        """The repetition bound n/(n-1)."""
        if n < 2:
            raise ValidationError(f"need n >= 2, got {n}")
        return cls(n, n - 1, strict)

    @classmethod
    def parse(cls, text: str, strict: bool = False) -> "Threshold":
        """Parse 'p' or 'p/q'; a trailing '+' sets the strict flag."""
        s = text.strip()
        if s.endswith("+"):
            strict = True
            s = s[:-1]
        try:
            if "/" in s:
                p, _, q = s.partition("/")
                return cls(int(p), int(q), strict)
            return cls(int(s), 1, strict)
        except ValueError as exc:
            raise ValidationError(f"cannot parse threshold {text!r}: {exc}") from None

    def forbids(self, length: int, period: int) -> bool:
        """Whether a power of this length and period is a violation."""
        if length <= period:
            return False
        lhs = length * self.den
        rhs = period * self.num
        return lhs > rhs if self.strict else lhs >= rhs

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def order_key(self) -> tuple[Fraction, int]:
        """Sort key for the extended order: beta sits immediately below beta-plus."""
        return (Fraction(self.num, self.den), 1 if self.strict else 0)

    def __str__(self) -> str:
        base = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        return base + "+" if self.strict else base


class Word(_Value):
    """A finite sequence of letters over the alphabet {1..k}."""

    __slots__ = ("letters", "k")
    letters: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("alphabet size must be positive")
        object.__setattr__(self, "letters", tuple(self.letters))
        for a in self.letters:
            if not 1 <= a <= self.k:
                raise ValidationError(f"letter {a} outside alphabet 1..{self.k}")

    @classmethod
    def from_text(cls, text: str, k: int = 26) -> "Word":
        """Map ASCII letters a..z (case-insensitive) to indices 1..26."""
        letters = []
        for ch in text.lower():
            if not "a" <= ch <= "z":
                raise ValidationError(f"not an ASCII letter: {ch!r}")
            letters.append(ord(ch) - ord("a") + 1)
        return cls(tuple(letters), k)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]


class ViolationWitness(_Value):
    """A located forbidden power: word[start : start+length] has the given period."""

    __slots__ = ("start", "period", "length", "exponent")
    start: int
    period: int
    length: int
    exponent: Fraction

    def __post_init__(self):
        if self.start < 0 or self.period < 1 or self.length <= self.period:
            raise ValidationError("witness must describe a power of exponent > 1")
        if self.exponent != Fraction(self.length, self.period):
            raise ValidationError("exponent must equal length/period")

    @property
    def tail_length(self) -> int:
        """Length of what remains after erasing the first period."""
        return self.length - self.period


def min_violation_length(period: int, t: Threshold) -> int:
    """Smallest length ell > period at which a power of this period violates t.

    Non-strict: least ell with ell/period >= num/den, i.e. ceil(period*num/den).
    Strict: least ell with ell/period > num/den, i.e. floor(period*num/den) + 1.
    Both exceed period because num > den; both are nondecreasing in period.
    """
    if period < 1:
        raise ValidationError("period must be positive")
    if t.strict:
        return period * t.num // t.den + 1
    return -((-period * t.num) // t.den)


def _window_checks(t: Threshold, max_length: int, tail_max: int | None = None):
    """(period, window) pairs, window = minimal forbidden length at that period.

    Per (end, period) only the minimal-length window needs testing: a longer
    forbidden suffix with the same period contains the minimal one, so the
    minimal window is periodic whenever any violating window is.  Pairs are
    ordered by window ascending (windows are nondecreasing in the period), so
    a suffix test can stop at the first window longer than the word.  With
    tail_max set, periods whose minimal window has a tail longer than
    tail_max are exempt (and so are all longer windows at that period, whose
    tails are longer still).
    """
    pairs = []
    j = 1
    while True:
        m = min_violation_length(j, t)
        if m > max_length:
            break
        if tail_max is None or m - j <= tail_max:
            pairs.append((j, m))
        j += 1
    return pairs


def _suffix_violation(w, end, pairs):
    """First (period, window) pair whose window ending at w[end-1] is periodic, or None."""
    for j, m in pairs:
        if m > end:
            break
        if w[end - 1] == w[end - 1 - j] and w[end - m + j:end] == w[end - m:end - j]:
            return j, m
    return None


def _forbidden_next_two(w, pairs):
    """Forbidden next letters of the free word w and of each of its children w+c.

    Returns (bad, repeat, common, named).  With p = len(w), appending a
    completes the period-j window of length m iff a == w[p-j] and
    w[p+1-m+j:p] == w[p+1-m:p-j], so each window forbids at most one letter,
    one already in w, and bad is found in one pass instead of once per
    candidate letter.  A grandchild letter a ends the window iff
    a == (w+c)[p+1-j] and, when m-j >= 2, c == w[p-j] and
    w[p+2-m+j:p] == w[p+2-m:p-j].  So the tail-1 windows forbid common after
    every child c, plus c itself when repeat (period 1), and a longer window
    adds (c, a) to named for the one child c = w[p-j] it names, never the
    fresh one.
    """
    p = len(w)
    bad, common, named = set(), set(), set()
    for j, m in pairs:
        if m > p + 2:
            break
        if m - j == 1:
            if m <= p + 1:
                bad.add(w[p - j])
            if j > 1:
                common.add(w[p + 1 - j])
            continue
        c = w[p - j]
        # Tail 2 compares no letter of w; for j = p, w[p-1-j] would wrap.
        if c not in bad and (m - j == 2 or (w[p - 1] == w[p - 1 - j]
                                            and w[p + 2 - m + j:p] == w[p + 2 - m:p - j])):
            # One more equal letter at its start makes the window forbid c after w.
            if m <= p + 1 and w[p + 1 - m + j] == w[p + 1 - m]:
                bad.add(c)
            else:
                named.add((c, c if j == 1 else w[p + 1 - j]))
    return bad, pairs[:1] == [(1, 2)], common, named


def find_violation(word: Word, t: Threshold) -> ViolationWitness | None:
    """Earliest-ending forbidden power of word under t, or None if t-free.

    Deterministic: smallest end index wins, ties broken by smallest period,
    and the reported length is the minimal violating length at that period.

    The scan goes one period at a time.  Each byte lane of the letters (lane
    r holds byte r of every letter, one byte per letter) is read as one big
    integer and XORed with itself shifted by j letters; OR-ing the lanes
    gives a difference string whose byte p is zero iff letter p equals
    letter p-j.  A run of m-j zero bytes starting at p >= j is a window of
    period j and length m ending where the run ends, so bytes.find of the
    first such run gives the earliest window at that period.  Every letter
    is one byte of the difference string, so a run can only start on a
    letter.  Each find stops before the best end so far, and the scan stops
    at the first window no shorter than that end.  Each period costs O(n)
    byte operations in C; the whole scan is O(n^2/beta) bytes.
    """
    letters = word.letters
    n = len(letters)
    width = max(1, (max(letters, default=0).bit_length() + 7) // 8)
    lanes = [int.from_bytes(bytes((a >> shift) & 255 for a in letters), "big")
             for shift in range(0, 8 * width, 8)]
    hit = None
    best_end = n + 1
    for j, m in _window_checks(t, n):
        if m >= best_end:
            break
        diff = 0
        for lane in lanes:
            diff |= lane ^ (lane >> 8 * j)
        p = diff.to_bytes(n, "big").find(bytes(m - j), j, best_end - 1)
        if p >= 0:
            best_end = p + m - j
            hit = (j, m)
    if hit is None:
        return None
    period, length = hit
    return ViolationWitness(start=best_end - length, period=period, length=length,
                            exponent=Fraction(length, period))


def extension_ok(word: Word, t: Threshold) -> bool:
    """Whether a word whose one-shorter prefix is t-free is itself t-free.

    Any violation created by appending a single letter to a free prefix must
    end at the new last letter, so it suffices to test, per period j, the
    minimal forbidden window ending there.  Behavior is unspecified when the
    prefix invariant does not hold.
    """
    end = len(word)
    return _suffix_violation(word.letters, end, _window_checks(t, end)) is None
