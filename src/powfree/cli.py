"""Command-line interface.

Commands: check, count, certify, audit, report, cache.  Each command builds
its result once, as a JSON document and the rows of a CSV table, and one
emitter (_emit) prints it to stdout as JSON (default) or CSV; counts and
exact rationals are always emitted as decimal strings so downstream tools
never lose precision.

Exit codes: 0 success (word free / all checks pass), 1 negative result
(violation found, or no witness exists), 2 usage error (ValidationError), 3
work budget exceeded, 4 exactly-checked inequality failed (internal bug
canary).  Any other exception is a bug and is not caught.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .analyze import REPORT_COLUMNS, conjecture_report, fj_audit
from .bounds import certify
from .cache import CountCache
from .counting import (DEFAULT_NAIVE_BUDGET, METHODS, CountSeries, count_free,
                       count_tail_restricted)
from .errors import BudgetExceededError, LemmaViolationError, NoWitnessError, ValidationError
from .words import Threshold, Word, find_violation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_LEMMA = 4


class UsageError(ValidationError):
    pass


def parse_cli_word(text: str) -> Word:
    """ASCII letters a..z map to 1..26; larger alphabets use comma-separated ints."""
    if re.fullmatch(r"[A-Za-z]+", text):
        return Word.from_text(text)
    if re.fullmatch(r"\d+(,\d+)*", text):
        letters = tuple(int(x) for x in text.split(","))
        if any(a < 1 for a in letters):
            raise UsageError("letter indices must be positive")
        return Word(letters, max(letters))
    raise UsageError("word must be ASCII letters or comma-separated positive integers")


def parse_int_values(text: str) -> list[int]:
    """Comma list with inclusive ranges: '2..4,7' -> [2, 3, 4, 7]."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ".." in part:
                a, _, b = part.partition("..")
                lo, hi = int(a), int(b)
                if hi < lo:
                    raise UsageError(f"empty range {part!r}")
                values.extend(range(lo, hi + 1))
            else:
                values.append(int(part))
        except ValueError:
            raise UsageError(f"cannot parse integer value {part!r}") from None
    return sorted(set(values))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(args, doc: dict, rows: list[dict], columns) -> None:
    """Print one result: rows under columns as CSV (a missing field is a blank
    cell), or doc as JSON with a generated_at timestamp unless --no-timestamp."""
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(row.get(c)) for c in columns] for row in rows)
        return
    if not args.no_timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(doc, indent=2, default=_frac_str))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _frac_str(value)
    return value


def _resolve_cache(args) -> CountCache | None:
    path = args.cache or os.environ.get("POWFREE_CACHE")
    return CountCache(path) if path else None


def _series_for(k: int, t: Threshold, max_length: int, method: str | None,
                tail_max: int | None, args) -> CountSeries:
    cache = _resolve_cache(args)
    if cache is not None:
        stored = cache.get(k, t, tail_max)
        if stored is not None and stored.max_length >= max_length:
            return stored.prefix(max_length)
    if tail_max is None:
        series = count_free(k, t, max_length, method, workers=args.workers, budget=args.budget)
    else:
        series = count_tail_restricted(k, t, tail_max, max_length, method,
                                       workers=args.workers, budget=args.budget)
    if cache is not None:
        cache.put(series)
    return series


def cmd_check(args) -> int:
    word = parse_cli_word(args.word)
    t = Threshold.parse(args.beta, strict=args.plus)
    found = find_violation(word, t)
    head = {"word": args.word, "beta": f"{t.num}/{t.den}" if t.den != 1 else str(t.num),
            "plus": t.strict, "free": found is None}
    witness = None if found is None else {
        "start": found.start,
        "period": found.period,
        "length": found.length,
        "exponent_num": str(found.exponent.numerator),
        "exponent_den": str(found.exponent.denominator),
        "tail_length": found.tail_length,
    }
    _emit(args, {"command": "check", **head, "witness": witness}, [{**head, **(witness or {})}],
          (*head, "start", "period", "length", "exponent_num", "exponent_den"))
    return EXIT_OK if found is None else EXIT_NEGATIVE


def cmd_count(args) -> int:
    t = Threshold.parse(args.beta, strict=args.plus)
    method = None if args.engine == "auto" else args.engine
    series = _series_for(args.k, t, args.max_len, method, args.tail_max, args)
    _emit(args, {"command": "count", **series.to_record()},
          [{"i": i, "count": str(c)} for i, c in enumerate(series.counts)], ("i", "count"))
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.n < 2:
        raise UsageError("n must be at least 2")
    required = args.n if args.plus else args.n + 1
    if args.k < required:
        op = "k >= n" if args.plus else "k > n"
        raise UsageError(f"{op} required for the witness condition (got k={args.k}, n={args.n})")
    t = Threshold.dejean(args.n, args.plus)
    series = _series_for(args.k, t, args.max_len, "canonical", None, args)
    fields = {"k": args.k, "n": args.n, "plus": args.plus}
    try:
        cert = certify(args.k, args.n, args.plus, series, args.precision_bits)
    except NoWitnessError as exc:
        _emit(args, {"command": "certify", "status": "no-witness", **fields, "detail": str(exc)},
              [{**fields, "status": "no-witness"}], (*fields, "status"))
        return EXIT_NEGATIVE
    fields.update({
        "x_witness_num": str(cert.x_witness.numerator),
        "x_witness_den": str(cert.x_witness.denominator),
        "condition_margin_num": str(cert.condition_margin.numerator),
        "condition_margin_den": str(cert.condition_margin.denominator),
        "verified_up_to": cert.verified_up_to,
        "series_digest": cert.series_digest,
    })
    _emit(args, {"command": "certify", "status": "ok", **fields}, [fields], tuple(fields))
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.n < 2:
        raise UsageError("n must be at least 2")
    audit = fj_audit(args.k, args.n, args.plus, args.len, budget=args.budget)
    rows = [{"j": r.period, "F_j_count": r.count, "bound": r.bound,
             "pass": r.count <= r.bound} for r in audit.rows]
    all_pass = all(r["pass"] for r in rows) and audit.suffix_determined
    doc = {
        "command": "audit",
        "k": audit.k, "n": audit.n, "plus": audit.strict, "i": audit.i,
        "rows": rows,
        "f_total": audit.f_total,
        "k_Ci_minus_Cnext": audit.k * audit.c_i - audit.c_next,
        "covered": sum(r["F_j_count"] for r in rows),
        "suffix_determination": audit.suffix_determined,
        "all_pass": all_pass,
    }
    _emit(args, doc, rows, ("j", "F_j_count", "bound", "pass"))
    return EXIT_OK if all_pass else EXIT_LEMMA


def cmd_report(args) -> int:
    n_values = parse_int_values(args.n)
    k_values = parse_int_values(args.k)
    if any(n < 2 for n in n_values):
        raise UsageError("n values must be at least 2")
    rows = [{c: getattr(r, c) for c in REPORT_COLUMNS}
            for r in conjecture_report(n_values, k_values, max_length=args.max_len,
                                       tail_max=args.tail_max, workers=args.workers)]
    nested: dict = {}
    for row in rows:
        entry = {c: v for c, v in row.items() if c not in ("k", "n")}
        nested.setdefault(str(row["n"]), {})[str(row["k"])] = entry
    _emit(args, {"command": "report", "columns": list(REPORT_COLUMNS),
                 "rows_by_n_then_k": nested}, rows, REPORT_COLUMNS)
    return EXIT_OK


def cmd_cache(args) -> int:
    cache = _resolve_cache(args)
    if cache is None:
        raise UsageError("no cache configured: pass --cache PATH or set POWFREE_CACHE")
    if args.action == "clear":
        cache.clear()
        if args.out == "json":
            _emit(args, {"command": "cache", "action": "clear", "path": str(cache.path)}, [], ())
        return EXIT_OK
    rows = [{"k": s.k, "beta": str(s.threshold).rstrip("+"),
             "plus": s.threshold.strict,
             "tail_max": s.tail_max, "method": s.method,
             "max_length": s.max_length} for s in cache.entries()]
    _emit(args, {"command": "cache", "action": "list", "path": str(cache.path), "entries": rows},
          rows, ("k", "beta", "plus", "tail_max", "method", "max_length"))
    return EXIT_OK


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--cache", metavar="PATH", default=None,
                        help="count cache file (default $POWFREE_CACHE if set)")
    common.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1,
                        help="parallel workers for long enumerations, at most one per core "
                             "(default: available cores)")
    common.add_argument("--budget", type=int, default=DEFAULT_NAIVE_BUDGET,
                        help="work budget: candidate words k**L for the naive engine, "
                             "letters of the next pattern level for audit")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated_at field for byte-reproducible output")

    parser = argparse.ArgumentParser(
        prog="powfree",
        description="Exact toolkit for power-free words: detection, counting, "
                    "growth-rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="test a word for forbidden powers")
    p.add_argument("word", help="letters a..z, or comma-separated integers")
    p.add_argument("--beta", required=True, help="exponent bound, 'p' or 'p/q'")
    p.add_argument("--plus", action="store_true", help="forbid only exponents strictly above beta")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", parents=[common],
                       help="count threshold-free words of each length")
    p.add_argument("--k", type=int, required=True, help="alphabet size")
    p.add_argument("--beta", required=True, help="exponent bound, 'p' or 'p/q'")
    p.add_argument("--plus", action="store_true")
    p.add_argument("--max-len", type=int, required=True, help="largest length to count")
    p.add_argument("--engine", choices=("auto", *METHODS), default="auto")
    p.add_argument("--tail-max", type=int, default=None,
                   help="restrict to forbidden powers with tail at most this long")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("certify", parents=[common],
                       help="produce an exactly-checked growth lower-bound certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="threshold is n/(n-1)")
    p.add_argument("--plus", action="store_true")
    p.add_argument("--max-len", type=int, default=10, help="series length to verify against")
    p.add_argument("--precision-bits", type=int, default=40)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("audit", parents=[common],
                       help="exhaustive per-period census of rejected extensions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--plus", action="store_true")
    p.add_argument("--len", type=int, required=True, help="prefix length i; words of length i+1")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report", parents=[common],
                       help="exploratory table of bounds, targets, and enumerations")
    p.add_argument("--n", required=True, help="values, e.g. '2..4' or '2,3'")
    p.add_argument("--k", required=True, help="values, e.g. '50,100,200'")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--tail-max", type=int, default=2)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cache", parents=[common], help="inspect or clear the count cache")
    p.add_argument("action", choices=("list", "clear"), nargs="?", default="list")
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:  # UsageError included
        print(f"powfree {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"powfree {args.command}: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoWitnessError as exc:
        print(f"powfree {args.command}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except LemmaViolationError as exc:
        print(f"powfree {args.command}: lemma violation: {exc}", file=sys.stderr)
        return EXIT_LEMMA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
