"""Domain types and exact fractional-power detection.

A word is a sequence of positive integer letters: a tuple, a list or bytes,
with no type of its own.  A factor w[s:e] is a power of period j when
w[t] == w[t-j] for every t in [s+j, e); its exponent is the rational
(e-s)/j.  Whether a power is forbidden has one rule, min_violation_length,
and every exponent comparison is an integer cross multiplication; detection
never touches floating point.

The two window tests share one window list (_window_checks).  A pattern of
the counting walk or of its level step finds, in one pass, every old letter
that would end a window after it (_forbidden_next); the audit's census
(analyze._census) makes the same pass and tallies each window it finds by its
period, from its own copy on purpose: a _forbidden_next that returned its hits
for the census made the Python walk (counting._dfs) 1.23x slower on ternary
squares to L = 30 and 1.49x on 3/2 at k = 20 to L = 11.  A whole word, for
find_violation and for every word the naive engine counts, is scanned one
period at a time (_first_window): O(n) bytes of big-integer and bytes.find
work in C per period, O(n^2/beta) bytes in all.
"""

from __future__ import annotations

import math

from .errors import ValidationError

__all__ = [
    "Threshold",
    "ViolationWitness",
    "min_violation_length",
    "find_violation",
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
        num, den = self.num, self.den
        if num < 1 or den < 1:
            raise ValidationError(f"threshold must be a positive rational, got {num}/{den}")
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if num <= den:
            raise ValidationError(f"threshold must exceed 1, got {num}/{den}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def __str__(self) -> str:
        base = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        return base + "+" if self.strict else base


def _check_alphabet(k: int) -> None:
    """A ValidationError unless k is an alphabet size: the letters 1..k, k >= 1."""
    if k < 1:
        raise ValidationError("alphabet size must be positive")


class ViolationWitness(_Value):
    """A located forbidden power: word[start : start+length] has the given period."""

    __slots__ = ("start", "period", "length")
    start: int
    period: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.period < 1 or self.length <= self.period:
            raise ValidationError("witness must describe a power of exponent > 1")

    @property
    def exponent(self) -> Fraction:
        """length/period, exactly."""
        from fractions import Fraction  # here: a command that prints no exponent never loads it

        return Fraction(self.length, self.period)

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
    a window test can stop at the first window longer than the word.  With
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


def _forbidden_next(w, pairs):
    """Old letters whose append to the free word w would end a forbidden power.

    With p = len(w), appending a completes the period-j window of length m
    iff a == w[p-j] and w[p+1-m+j:p] == w[p+1-m:p-j]: a window of tail 1
    always forbids w[p-j], a longer one when its other letters already
    repeat.  So each window forbids at most one old letter, and none the fresh.
    """
    p = len(w)
    bad = set()
    for j, m in pairs:
        if m > p + 1:
            break
        # Testing w[p-1] first rejects most longer windows before any slice is compared.
        if m - j == 1 or (w[p - 1] == w[p - 1 - j] and w[p + 1 - m + j:p] == w[p + 1 - m:p - j]):
            bad.add(w[p - j])
    return bad


def _first_window(letters, pairs):
    """Earliest-ending periodic window of letters, as (end, period, window), or None.

    pairs are _window_checks' (period, window) pairs, ordered by window.  The
    scan goes one period at a time.  Each byte lane of the letters (lane r
    holds byte r of every letter, one byte per letter) is read as one big
    integer and XORed with itself shifted by j letters; OR-ing the lanes gives
    a difference string whose byte p is zero iff letter p equals letter p-j.
    A run of m-j zero bytes starting at p >= j is a window of period j and
    length m ending where the run ends, so bytes.find of the first such run
    gives the earliest window at that period.  Every letter is one byte of
    the difference string, so a run can only start on a letter.  Each find
    stops before the best end so far, and the scan stops at the first window
    no shorter than that end, so ties go to the smaller period and windows
    longer than the word are never tried.  Each period costs O(n) byte
    operations in C.
    """
    n = len(letters)
    try:  # letters below 256, the common case, are their own lane
        lanes = [int.from_bytes(bytes(letters), "big")]
    except ValueError:
        width = (max(letters).bit_length() + 7) // 8
        lanes = [int.from_bytes(bytes((a >> shift) & 255 for a in letters), "big")
                 for shift in range(0, 8 * width, 8)]
    hit = None
    best_end = n + 1
    for j, m in pairs:
        if m >= best_end:
            break
        diff = 0
        for lane in lanes:
            diff |= lane ^ (lane >> 8 * j)
        p = diff.to_bytes(n, "big").find(bytes(m - j), j, best_end - 1)
        if p >= 0:
            best_end = p + m - j
            hit = (best_end, j, m)
    return hit


def find_violation(letters, t: Threshold) -> ViolationWitness | None:
    """Earliest-ending forbidden power of letters under t, or None if t-free.

    The alphabet is whatever letters occur.  Deterministic: smallest end
    index wins, ties broken by smallest period, and the reported length is
    the minimal violating length at that period.  One scan of the word's
    windows (_first_window): O(n^2/beta) bytes in all.
    """
    if letters and min(letters) < 1:
        raise ValidationError("letter indices must be positive")
    hit = _first_window(letters, _window_checks(t, len(letters)))
    if hit is None:
        return None
    end, period, length = hit
    return ViolationWitness(start=end - length, period=period, length=length)
