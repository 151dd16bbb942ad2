"""Seeded workloads for the powfree benchmark: inputs, set-up data and output checks.

A workload is a list of CLI invocations (`Op`) made from the seed alone.  The
op mix and sizes are the same for every seed; the seed picks alphabet sizes,
cache keys, word offsets, letter permutations and the order of the ops.

Expected outputs come from `expected.json` (pattern tables and audit outputs
recorded from the library by `make_expected.py`) and from exact arithmetic
done here, never from the code under test at run time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("deep", "sweep", "detect")

# Wall seconds of one round of each workload at the commit that introduced the
# benchmark (2-core x86-64 VM, Python 3.11).  A run makes
# max(1, round(seconds / ROUND_SECONDS)) rounds, so its inputs depend only on
# the seed and --seconds.
ROUND_SECONDS = {"deep": 16.0, "sweep": 10.0, "detect": 9.0}

# A language is (num, den, strict, tail_max): words avoiding powers of exponent
# >= num/den (> when strict), only those with tail <= tail_max when it is set.
Lang = tuple


def dejean(n: int, strict: bool = False, tail_max: int | None = None) -> Lang:
    return (n, n - 1, strict, tail_max)


def lang_key(lang: Lang) -> str:
    num, den, strict, tail_max = lang
    key = f"{num}/{den}" + ("+" if strict else "")
    return key if tail_max is None else f"{key},tail={tail_max}"


def beta_arg(lang: Lang) -> str:
    num, den = lang[0], lang[1]
    return str(num) if den == 1 else f"{num}/{den}"


# sweep: cache records cover every key below; each op either reads a stored
# length (hit) or asks for one more (miss: count, then put rewrites the file).
SWEEP_STORED_LEN = 9
SWEEP_KS = range(3, 203)
SWEEP_LANGS = tuple(dejean(n, s, t) for n in (2, 3, 4) for s in (False, True) for t in (None, 2))
SWEEP_HITS_PER_CLASS = 3
CERTIFY_MIN_K = 8   # every n <= 4, either flag, has a witness from here up
FULL_WORK_K = 13    # above every length counted, so canonical DFS work is k-independent
REPORT_MAX_LEN = 8  # CLI defaults of `report`
REPORT_TAIL_MAX = 2

# deep: cold enumerations at certificate scale, one of each per round.
DEEP_OPS = (
    ("certify", dejean(3), 14),
    ("certify", dejean(3, True), 13),
    ("certify", dejean(4), 15),
    ("count", dejean(3, tail_max=2), 14),
)
DEEP_KS = (16, 40)  # k >= every length, so the seed does not change the work
DEEP_WORKERS = 2

# detect: exhaustive audits plus long square-free words.
AUDITS = ((4, 3, False, 8), (4, 3, True, 8), (5, 3, False, 7))  # (k, n, plus, len)
WORD_LEN = 2000
FREE_WORDS_PER_ROUND = 1
PLANT_FROM_END = (20, 60)
ORACLE_WORDS = 1500  # cross-check a count prefix with the oracle while sum k**i stays below this


def table_lengths() -> dict[Lang, int]:
    """Longest length each pinned pattern table must cover."""
    need = {lang: SWEEP_STORED_LEN + 1 for lang in SWEEP_LANGS}
    for _, lang, length in DEEP_OPS:
        need[lang] = max(need.get(lang, 0), length)
    for k, n, plus, i in AUDITS:
        lang = dejean(n, plus)
        need[lang] = max(need.get(lang, 0), i + 1)
    return need


def perm(k: int, d: int) -> int:
    out = 1
    for i in range(d):
        out *= k - i
    return out


class Expected:
    """Pinned pattern tables and audit outputs from `expected.json`.

    tables[lang][L][d] is the number of canonical patterns of length L with d
    distinct letters, so C_L(k) = sum_d tables[lang][L][d] * k(k-1)...(k-d+1).
    """

    def __init__(self, path: Path = EXPECTED_PATH):
        doc = json.loads(path.read_text())
        self.tables = {key: [list(map(int, row)) for row in rows]
                       for key, rows in doc["tables"].items()}
        self.audits = doc["audits"]

    def counts(self, lang: Lang, k: int, length: int) -> list[int]:
        rows = self.tables[lang_key(lang)]
        if length >= len(rows):
            raise KeyError(f"no pinned table for {lang_key(lang)} at length {length}")
        return [sum(p * perm(k, d) for d, p in enumerate(rows[i]) if d <= k)
                for i in range(length + 1)]


def series_digest(lang: Lang, k: int, counts: list[int]) -> str:
    """The certificate's series digest, recomputed from its documented fields."""
    num, den, strict, tail_max = lang
    key = f"{k}|{num}/{den}|{int(strict)}|{tail_max}|" + ",".join(str(c) for c in counts)
    return hashlib.sha256(key.encode()).hexdigest()


@dataclass
class Op:
    argv: list[str]   # arguments after the program name
    command: str      # per-command metric bucket
    expect: dict      # what check_output compares against


@dataclass
class Plan:
    workload: str
    seed: int
    rounds: int
    ops: list[Op]
    uses_cache: bool


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, rounds: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    ops = {"deep": _deep_ops, "sweep": _sweep_ops, "detect": _detect_ops}[workload](rng, rounds)
    return Plan(workload, seed, rounds, ops, uses_cache=workload == "sweep")


def _certify_op(lang: Lang, k: int, length: int, extra=()) -> Op:
    n, strict = lang[0], lang[2]
    argv = ["certify", "--k", str(k), "--n", str(n)] + (["--plus"] if strict else [])
    argv += ["--max-len", str(length), *extra]
    return Op(argv, "certify", {"kind": "certify", "lang": lang, "k": k, "len": length})


def _count_op(lang: Lang, k: int, length: int, extra=()) -> Op:
    argv = ["count", "--k", str(k), "--beta", beta_arg(lang)] + (["--plus"] if lang[2] else [])
    argv += ["--tail-max", str(lang[3]), "--max-len", str(length), *extra]
    return Op(argv, "count", {"kind": "count", "lang": lang, "k": k, "len": length})


def _deep_ops(rng: random.Random, rounds: int) -> list[Op]:
    ops = []
    for _ in range(rounds):
        block = []
        for command, lang, length in DEEP_OPS:
            k = rng.randint(*DEEP_KS)
            make = _certify_op if command == "certify" else _count_op
            block.append(make(lang, k, length, ("--workers", str(DEEP_WORKERS))))
        rng.shuffle(block)
        ops += block
    return ops


def _sweep_ops(rng: random.Random, rounds: int) -> list[Op]:
    taken: set = set()

    def draw(lang, lo):
        while True:
            k = rng.randint(lo, SWEEP_KS[-1])
            if (lang, k) not in taken:
                taken.add((lang, k))
                return k

    ops: list[Op] = []
    for _ in range(rounds):
        block = []
        for lang in SWEEP_LANGS:
            certify = lang[3] is None
            make = _certify_op if certify else _count_op
            for _ in range(SWEEP_HITS_PER_CLASS):
                k = draw(lang, CERTIFY_MIN_K if certify else SWEEP_KS[0])
                block.append(make(lang, k, SWEEP_STORED_LEN))
            block.append(make(lang, draw(lang, FULL_WORK_K), SWEEP_STORED_LEN + 1))
        ks = sorted(rng.sample(range(FULL_WORK_K, SWEEP_KS[-1] + 1), 3))
        block.append(Op(["report", "--n", "2..4", "--k", ",".join(map(str, ks))], "report",
                        {"kind": "report", "ks": ks}))
        block.append(Op(["cache", "list"], "cache_list", {"kind": "cache_list"}))
        rng.shuffle(block)
        ops += block
    # Replay the cache state so each `cache list` knows what it must show.
    stored = {(lang, k): SWEEP_STORED_LEN for lang in SWEEP_LANGS for k in SWEEP_KS}
    for op in ops:
        e = op.expect
        if e["kind"] in ("certify", "count"):
            key = (e["lang"], e["k"])
            stored[key] = max(stored[key], e["len"])
        elif e["kind"] == "cache_list":
            e["lengths"] = dict(stored)
    return ops


def sweep_cache_text(seed: int, expected: Expected) -> str:
    """The sweep's starting cache: one correct record per key, in seeded order.

    Records are serialised by the library's own `CountSeries.to_record`, so
    the file has whatever format the program reads.
    """
    from powfree.counting import CountSeries
    from powfree.words import Threshold

    lines = []
    for lang in SWEEP_LANGS:
        num, den, strict, tail_max = lang
        for k in SWEEP_KS:
            series = CountSeries(k=k, threshold=Threshold(num, den, strict),
                                 counts=tuple(expected.counts(lang, k, SWEEP_STORED_LEN)),
                                 method="canonical", tail_max=tail_max)
            lines.append(json.dumps(series.to_record()) + "\n")
    random.Random(f"sweep-cache:{seed}").shuffle(lines)
    return "".join(lines)


def thue_morse_ternary(offset: int, length: int) -> list[int]:
    """Square-free ternary word: first differences of Thue-Morse, plus one."""
    t = [bin(i).count("1") & 1 for i in range(offset, offset + length + 1)]
    return [t[i + 1] - t[i] + 1 for i in range(length)]


def detect_word(rng: random.Random, plant: bool) -> tuple[str, int | None]:
    """A seeded square-free word of WORD_LEN letters, or a copy with "aaa" planted.

    The plant repeats letter p-1 at p and p+1 on top of a square-free prefix,
    so the earliest forbidden power ends at p+1 (a square, period 1) under
    beta 2 and at p+2 (a cube) under beta 2+.  Returns (word, p).
    """
    letters = rng.sample("abc", 3)
    base = thue_morse_ternary(rng.randrange(1 << 20), WORD_LEN)
    word = [letters[x] for x in base]
    if not plant:
        return "".join(word), None
    p = WORD_LEN - rng.randint(*PLANT_FROM_END)
    word = word[:p] + [word[p - 1]] * 2 + word[p:WORD_LEN - 2]
    return "".join(word), p


def _check_ops(word: str, p: int | None) -> list[Op]:
    ops = []
    for plus in (False, True):
        witness = None
        if p is not None:
            length = 3 if plus else 2
            witness = {"start": p - 1, "period": 1, "length": length,
                       "exponent_num": str(length), "exponent_den": "1",
                       "tail_length": length - 1}
        argv = ["check", word, "--beta", "2"] + (["--plus"] if plus else [])
        ops.append(Op(argv, "check", {"kind": "check", "word": word, "plus": plus,
                                      "witness": witness}))
    return ops


def _detect_ops(rng: random.Random, rounds: int) -> list[Op]:
    ops = []
    for _ in range(rounds):
        block = []
        for k, n, plus, i in AUDITS:
            argv = ["audit", "--k", str(k), "--n", str(n)] + (["--plus"] if plus else [])
            block.append(Op(argv + ["--len", str(i)], "audit",
                            {"kind": "audit", "key": audit_key(k, n, plus, i)}))
        for _ in range(FREE_WORDS_PER_ROUND):
            block += _check_ops(*detect_word(rng, plant=False))
        block += _check_ops(*detect_word(rng, plant=True))
        rng.shuffle(block)
        ops += block
    return ops


def audit_key(k: int, n: int, plus: bool, i: int) -> str:
    return f"k={k},n={n},plus={int(plus)},len={i}"


# ---------------------------------------------------------------- output checks

def expected_exit(op: Op) -> int:
    e = op.expect
    return 1 if e["kind"] == "check" and e["witness"] is not None else 0


def check_output(op: Op, code: int, out: str, expected: Expected) -> str | None:
    """None when the op's exit code and stdout are right, else what is wrong."""
    if code != expected_exit(op):
        return f"exit code {code}, expected {expected_exit(op)}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    doc.pop("generated_at", None)
    kind = op.expect["kind"]
    try:
        return _CHECKS[kind](op.expect, doc, expected)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed {kind} output: {exc!r}"


def _witness_problem(k: int, n: int, strict: bool, num: int, den: int,
                     precision_bits: int = 40) -> str | None:
    """A certify witness must satisfy its condition and sit within 2**-bits of the root."""
    x = Fraction(num, den)
    b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
    tol = Fraction(1, 2 ** precision_bits)
    if not (x > 1 and 2 * x >= b and x * x - b * x + c <= 0):
        return f"witness {x} violates its condition"
    y = x + tol
    if y * y - b * y + c <= 0:
        return f"witness {x} is more than 2**-{precision_bits} below the root"
    return None


def _check_certify(e: dict, doc: dict, expected: Expected) -> str | None:
    lang, k, length = e["lang"], e["k"], e["len"]
    n, strict = lang[0], lang[2]
    counts = expected.counts(lang, k, length)
    head = (doc["command"], doc["status"], doc["k"], doc["n"], doc["plus"], doc["verified_up_to"])
    if head != ("certify", "ok", k, n, strict, length - 1):
        return f"certificate header {head}"
    if doc["series_digest"] != series_digest(lang, k, counts):
        return "series_digest does not match the pinned counts"
    num, den = int(doc["x_witness_num"]), int(doc["x_witness_den"])
    problem = _witness_problem(k, n, strict, num, den)
    if problem:
        return problem
    x = Fraction(num, den)
    base = k + 1 if strict else k
    margin = base - (n - 1) * x / (x - 1) - x
    if Fraction(int(doc["condition_margin_num"]), int(doc["condition_margin_den"])) != margin:
        return "condition margin is not the exact slack at the witness"
    if any(counts[i + 1] * den < num * counts[i] for i in range(1, length)):
        return "pinned counts break the certified ratio"
    return None


def _check_count(e: dict, doc: dict, expected: Expected) -> str | None:
    num, den, strict, tail_max = e["lang"]
    want = [str(c) for c in expected.counts(e["lang"], e["k"], e["len"])]
    got = (doc["command"], doc["k"], doc["num"], doc["den"], doc["strict"], doc["tail_max"])
    if got != ("count", e["k"], num, den, strict, tail_max):
        return f"count header {got}"
    if doc["counts"] != want:
        return "counts differ from the pinned counts"
    return None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(float(a), b, rel_tol=1e-9, abs_tol=1e-9)


def _root(k: int, n: int, strict: bool) -> float | None:
    b, c = (k + 3 - n, k + 1) if strict else (k + 2 - n, k)
    disc = b * b - 4 * c
    if disc < 0:
        return None
    root = (b + math.sqrt(disc)) / 2
    return root if root > 1 else None


def _check_report(e: dict, doc: dict, expected: Expected) -> str | None:
    rows = doc["rows_by_n_then_k"]
    if doc["command"] != "report" or sorted(rows) != ["2", "3", "4"]:
        return "report does not cover n = 2..4"
    for n in (2, 3, 4):
        if sorted(map(int, rows[str(n)])) != e["ks"]:
            return f"report row keys for n={n} differ"
        for k in e["ks"]:
            row = rows[str(n)][str(k)]
            root, root_plus = _root(k, n, False), _root(k, n, True)
            target = k + 1 - n - (n - 1) / k
            target_plus = k + 2 - n - (n - 1) / k
            full = expected.counts(dejean(n), k, REPORT_MAX_LEN)
            tail = expected.counts(dejean(n, tail_max=REPORT_TAIL_MAX), k, REPORT_MAX_LEN)
            want = {
                "root": root, "root_plus": root_plus,
                "target": target, "target_plus": target_plus,
                "big_jump": root_plus - root,
                "small_variation": root - _root(k, n + 1, True),
                "resid_times_k2": (root - target) * k * k,
                "resid_plus_times_k2": (root_plus - target_plus) * k * k,
                "alpha_ratio": full[-1] / full[-2],
                "alpha_prime_ratio": tail[-1] / tail[-2],
            }
            for col, value in want.items():
                if not _close(row[col], value):
                    return f"report n={n} k={k}: {col} = {row[col]}, expected {value}"
            for col, strict in (("witness", False), ("witness_plus", True)):
                x = Fraction(row[col])
                problem = _witness_problem(k, n, strict, x.numerator, x.denominator)
                if problem:
                    return f"report n={n} k={k}: {problem}"
    return None


def _check_cache_list(e: dict, doc: dict, expected: Expected) -> str | None:
    shown = {}
    for row in doc["entries"]:
        num, _, den = row["beta"].partition("/")
        lang = (int(num), int(den or 1), row["plus"], row["tail_max"])
        shown[(lang, row["k"])] = row["max_length"]
    if shown != e["lengths"]:
        missing = len(set(e["lengths"]) - set(shown))
        return f"cache list shows {len(shown)} entries ({missing} missing) or wrong lengths"
    return None


def _check_audit(e: dict, doc: dict, expected: Expected) -> str | None:
    want = expected.audits[e["key"]]
    if doc != want:
        return "audit output differs from the pinned audit"
    k, n, plus, i = doc["k"], doc["n"], doc["plus"], doc["i"]
    c = expected.counts(dejean(n, plus), k, i + 1)
    if not doc["all_pass"] or doc["f_total"] != k * c[i] - c[i + 1] \
            or doc["k_Ci_minus_Cnext"] != doc["f_total"] or doc["covered"] < doc["f_total"]:
        return "audit does not pass and balance against the pinned counts"
    return None


def _check_check(e: dict, doc: dict, expected: Expected) -> str | None:
    want = {"command": "check", "word": e["word"], "beta": "2", "plus": e["plus"],
            "free": e["witness"] is None, "witness": e["witness"]}
    if doc != want:
        return f"check output {doc.get('free')}/{doc.get('witness')}, expected {want['witness']}"
    return None


_CHECKS = {"certify": _check_certify, "count": _check_count, "report": _check_report,
           "cache_list": _check_cache_list, "audit": _check_audit, "check": _check_check}


# ---------------------------------------------------------------- oracle cross-check

def load_oracles():
    """tests/oracles.py, the brute-force reference, or None when the tree lacks it."""
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("powfree_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_problems(plan: Plan, expected: Expected, oracles) -> list[str]:
    """Cross-check the pinned expectations this plan uses against the oracles.

    Counts are compared on the longest prefix whose brute force stays below
    ORACLE_WORDS words; long words are checked through short factors around
    the planted violation and at the start.
    """
    problems = []
    seen = set()
    for op in plan.ops:
        e = op.expect
        if e["kind"] in ("certify", "count"):
            lang, k = e["lang"], e["k"]
            length, total = 0, 1
            while length < e["len"] and total + k ** (length + 1) <= ORACLE_WORDS:
                length += 1
                total += k ** length
            if length == 0 or (lang, k, length) in seen:
                continue
            seen.add((lang, k, length))
            num, den, strict, tail_max = lang
            if oracles.count_series(k, num, den, strict, length, tail_max) \
                    != expected.counts(lang, k, length):
                problems.append(f"pinned counts for {lang_key(lang)} k={k} "
                                "disagree with the oracle")
        elif e["kind"] == "check" and not e["plus"]:
            letters = [ord(ch) for ch in e["word"]]
            if not oracles.is_free(letters[:40], 2, 1, False):
                problems.append("generated word is not square-free at its start")
            if e["witness"] is not None:
                p = e["witness"]["start"] + 1
                if oracles.is_free(letters[p - 12:p + 2], 2, 1, True):
                    problems.append("planted cube is missing")
                if not oracles.is_free(letters[p - 12:p], 2, 1, False):
                    problems.append("word before the plant is not square-free")
    return problems
