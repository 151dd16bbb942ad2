"""Command-line interface.

Commands: check, count, certify, audit, report, cache.  Each command builds
its result once, as a JSON document and the rows of a CSV table, and one
emitter (_output._emit) prints it to stdout as JSON (default) or CSV; cache
list hands over its rows as an iterator, and each row is made as it is
written.  Counts and exact rationals are always emitted as decimal strings
so downstream tools never lose precision.

Exit codes: 0 success (word free / all checks pass), 1 negative result
(violation found, or no witness exists), 2 usage error (ValidationError), 3
work budget exceeded, 4 exactly-checked inequality failed (internal bug
canary), 130 interrupted (Ctrl-C), 141 stdout's reader closed the pipe.  Any
other exception is a bug and is not caught.  entry() ends the process with
os._exit once the output is flushed and the exit handlers have run.
"""

from __future__ import annotations

import _signal  # loaded at every start-up, unlike signal
import atexit
import os
import re
import sys

# analyze, bounds, cache and counting are the package's lazy modules: each runs at its first
# attribute read, so the layers are read at call time and a command runs only those it uses.
from . import analyze, bounds, cache, counting
from ._output import _emit
from .errors import BudgetExceededError, LemmaViolationError, NoWitnessError, ValidationError
from .words import Threshold, find_violation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_LEMMA = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command that Ctrl-C stopped
EXIT_PIPE = 141  # 128 + SIGPIPE: how a shell reports a writer that a closed pipe killed


def parse_cli_word(text: str) -> tuple[int, ...]:
    """ASCII letters a..z map to 1..26; larger alphabets use comma-separated ints."""
    if re.fullmatch(r"[A-Za-z]+", text):
        return tuple(ord(ch) - ord("a") + 1 for ch in text.lower())
    if re.fullmatch(r"\d+(,\d+)*", text):
        # main() lifts CPython's limit on int-str conversions for counts; letter indices keep it.
        if max(map(len, text.split(","))) > 4300:
            raise ValidationError("letter index has too many digits")
        return tuple(int(x) for x in text.split(","))
    raise ValidationError("word must be ASCII letters or comma-separated positive integers")


def parse_int_values(text: str) -> list[int]:
    """Comma list with inclusive ranges: '2..4,7' -> [2, 3, 4, 7]."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        a, dots, b = part.partition("..")
        try:
            lo, hi = int(a), int(b if dots else a)
        except ValueError:
            raise ValidationError(f"cannot parse integer value {part!r}") from None
        if hi < lo:
            raise ValidationError(f"empty range {part!r}")
        values.extend(range(lo, hi + 1))
    return sorted(set(values))


def _resolve_cache(args) -> cache.CountCache | None:
    path = args.cache or os.environ.get("POWFREE_CACHE")
    return cache.CountCache(path) if path else None


def _series_for(k: int, t: Threshold, max_length: int, method: str,
                tail_max: int | None, args, budget: int) -> counting.CountSeries:
    # The cache memoizes the canonical walk, for a length the count accepts; naive recounts.
    store = _resolve_cache(args) if method == "canonical" else None
    if store is not None:
        stored = store.get(k, t, tail_max)
        if stored is not None and 0 <= max_length <= stored.max_length:
            return stored.prefix(max_length)
    if tail_max is None:
        series = counting.count_free(k, t, max_length, method, workers=args.workers,
                                     budget=budget)
    else:
        series = counting.count_tail_restricted(k, t, tail_max, max_length, method,
                                                workers=args.workers, budget=budget)
    if store is not None:
        store.put(series)
    return series


def cmd_check(args) -> int:
    word = parse_cli_word(args.word)
    t = Threshold.parse(args.beta, strict=args.plus)
    found = find_violation(word, t)
    head = {"word": args.word, "beta": str(t).rstrip("+"),
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
    series = _series_for(args.k, t, args.max_len, args.engine, args.tail_max, args, args.budget)
    _emit(args, {"command": "count", **series.to_record()},
          [{"i": i, "count": str(c)} for i, c in enumerate(series.counts)], ("i", "count"))
    return EXIT_OK


def _threshold(args) -> tuple[Threshold, dict]:
    if args.beta is None:
        return Threshold.dejean(args.n, args.plus), {"n": args.n}
    t = Threshold.parse(args.beta, strict=args.plus)
    return t, {"beta": str(t).rstrip("+")}


def cmd_certify(args) -> int:
    t, given = _threshold(args)
    fields = {"k": args.k, **given, "plus": t.strict}
    try:
        # One witness search, before any count; a shorter series stays a usage error, as
        # certify_series reports it.
        x = bounds._witness(args.k, t) if args.max_len >= 2 else None
        series = _series_for(args.k, t, args.max_len, "canonical", None, args,
                             counting.DEFAULT_NAIVE_BUDGET)
        cert = bounds.certify_series(series, witness=x)
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
    t, given = _threshold(args)
    audit = analyze.fj_audit(args.k, t, args.len, budget=args.budget)
    # fj_audit raises LemmaViolationError (exit 4) for a row above its bound, so every row passes.
    rows = [{"j": r.period, "F_j_count": r.count, "bound": r.bound, "pass": True}
            for r in audit.rows]
    doc = {
        "command": "audit",
        "k": audit.k, **given, "plus": t.strict, "i": audit.i,
        "rows": rows,
        "f_total": audit.f_total,
        "k_Ci_minus_Cnext": audit.k * audit.c_i - audit.c_next,
        "covered": sum(r["F_j_count"] for r in rows),
        "suffix_determination": audit.suffix_determined,
        "all_pass": audit.suffix_determined,
    }
    _emit(args, doc, rows, ("j", "F_j_count", "bound", "pass"))
    return EXIT_OK if audit.suffix_determined else EXIT_LEMMA


def cmd_report(args) -> int:
    n_values = parse_int_values(args.n)
    k_values = parse_int_values(args.k)
    columns = analyze.REPORT_COLUMNS
    rows = [{c: getattr(r, c) for c in columns}
            for r in analyze.conjecture_report(n_values, k_values, max_length=args.max_len,
                                               tail_max=args.tail_max, workers=args.workers)]
    nested: dict = {}
    for row in rows:
        entry = {c: v for c, v in row.items() if c not in ("k", "n")}
        nested.setdefault(str(row["n"]), {})[str(row["k"])] = entry
    _emit(args, {"command": "report", "columns": list(columns),
                 "rows_by_n_then_k": nested}, rows, columns)
    return EXIT_OK


def cmd_cache(args) -> int:
    store = _resolve_cache(args)
    if store is None:
        raise ValidationError("no cache configured: pass --cache PATH or set POWFREE_CACHE")
    if args.action == "clear":
        store.clear()
        if args.out == "json":
            _emit(args, {"command": "cache", "action": "clear", "path": str(store.path)}, [], ())
        return EXIT_OK
    rows = ({"k": s.k, "beta": str(s.threshold).rstrip("+"), "plus": s.threshold.strict,
             "tail_max": s.tail_max, "max_length": s.max_length} for s in store.entries())
    _emit(args, {"command": "cache", "action": "list", "path": str(store.path), "entries": rows},
          rows, ("k", "beta", "plus", "tail_max", "max_length"))
    return EXIT_OK


def _worker_count(text: str) -> int:
    import argparse  # loaded by then: only a parser calls this

    try:
        workers = int(text)
        counting._check_workers(workers)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return workers


def _command(sub, built: str | None, name: str, summary: str, *, cache=False, workers=False,
             budget=False, language=False) -> argparse.ArgumentParser | None:
    """Register command name with its summary.  If built is None or name, return its parser
    with --out, those of --cache, --workers and --budget that it reads, --no-timestamp and,
    for audit and certify, --k, --n or --beta, and --plus; else None."""
    p = sub.add_parser(name, help=summary)
    if built not in (None, name):
        return None
    p.add_argument("--out", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    if cache:
        p.add_argument("--cache", metavar="PATH", default=None,
                       help="count cache file (default $POWFREE_CACHE if set)")
    if workers:
        p.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1,
                       help="parallel workers for long enumerations, at most one per core "
                            "(default: available cores)")
    if budget:
        p.add_argument("--budget", type=int, default=counting.DEFAULT_NAIVE_BUDGET,
                       help="work budget: candidate words k**L for the naive engine, "
                            "letters of the next pattern level for audit")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated_at field for byte-reproducible output")
    if language:
        p.add_argument("--k", type=int, required=True)
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--n", type=int, help="threshold is n/(n-1)")
        given.add_argument("--beta", help="exponent bound, 'p' or 'p/q'")
        p.add_argument("--plus", action="store_true")
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the arguments of command only, or of all six
    if command is None.  Help and usage errors read the same either way."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="powfree",
        description="Exact toolkit for power-free words: detection, counting, "
                    "growth-rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    if p := _command(sub, command, "check", "test a word for forbidden powers"):
        p.add_argument("word", help="letters a..z, or comma-separated integers")
        p.add_argument("--beta", required=True, help="exponent bound, 'p' or 'p/q'")
        p.add_argument("--plus", action="store_true",
                       help="forbid only exponents strictly above beta")
        p.set_defaults(func=cmd_check)

    if p := _command(sub, command, "count", "count threshold-free words of each length",
                     cache=True, workers=True, budget=True):
        p.add_argument("--k", type=int, required=True, help="alphabet size")
        p.add_argument("--beta", required=True, help="exponent bound, 'p' or 'p/q'")
        p.add_argument("--plus", action="store_true")
        p.add_argument("--max-len", type=int, required=True, help="largest length to count")
        p.add_argument("--engine", choices=counting.METHODS, default="canonical")
        p.add_argument("--tail-max", type=int, default=None,
                       help="restrict to forbidden powers with tail at most this long")
        p.set_defaults(func=cmd_count)

    if p := _command(sub, command, "certify",
                     "produce an exactly-checked growth lower-bound certificate",
                     cache=True, workers=True, language=True):
        p.add_argument("--max-len", type=int, default=10, help="series length to verify against")
        p.set_defaults(func=cmd_certify)

    if p := _command(sub, command, "audit", "exhaustive per-period census of rejected extensions",
                     budget=True, language=True):
        p.add_argument("--len", type=int, required=True,
                       help="prefix length i; words of length i+1")
        p.set_defaults(func=cmd_audit)

    if p := _command(sub, command, "report",
                     "exploratory table of bounds, targets, and enumerations", workers=True):
        p.add_argument("--n", required=True, help="values, e.g. '2..4' or '2,3'")
        p.add_argument("--k", required=True, help="values, e.g. '50,100,200'")
        p.add_argument("--max-len", type=int, default=8)
        p.add_argument("--tail-max", type=int, default=2)
        p.set_defaults(func=cmd_report)

    if p := _command(sub, command, "cache", "inspect or clear the count cache", cache=True):
        p.add_argument("action", choices=("list", "clear"), nargs="?", default="list")
        p.set_defaults(func=cmd_cache)

    return parser


# The layers each command runs.  main runs them before it imports argparse: run after it
# (compiled from source under PYTHONDONTWRITEBYTECODE), they raised the peak RSS of audit,
# certify and count by 0.26-0.39 MB (medians of 11 runs, 2-vCPU host).
_LAYERS = {"check": (), "count": (counting,), "certify": (counting, bounds),
           "audit": (analyze,), "report": (analyze, bounds), "cache": (cache,)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command argparse runs is the first argument that names one: the parent parser has
    # no option that takes a value.  Whatever else comes first is a usage error of the parent,
    # which reads the same without the commands' arguments.
    command = next((arg for arg in argv if arg in _LAYERS), None)
    for layer in _LAYERS.get(command, ()):
        vars(layer)  # any attribute read runs a lazy module
    # Counts and rationals are exact at any size: no limit on int-str conversions (CPython's
    # default since 3.10.7 is 4,300 digits) while main runs, output included. The caller's
    # limit is back when main returns or raises.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # The parser is garbage once it has parsed.
        args = build_parser(command).parse_args(argv)
        try:
            return args.func(args)
        except ValidationError as exc:
            print(f"powfree {args.command}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except BudgetExceededError as exc:
            print(f"powfree {args.command}: budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except LemmaViolationError as exc:
            print(f"powfree {args.command}: lemma violation: {exc}", file=sys.stderr)
            return EXIT_LEMMA
        except KeyboardInterrupt:
            print(f"powfree {args.command}: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _closed_pipe() -> int:
    # What is left in stdout's buffer goes to os.devnull, so no later flush raises again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PIPE


def _interrupt_once(signum, frame):
    # Later SIGINTs are ignored, so none lands in the clean-up the first one started (a pool's
    # wait on its lock, the termination of its workers) and prints a traceback.
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    raise KeyboardInterrupt


def entry() -> None:
    """The powfree script and python -m powfree.cli: run main() and exit with its code.

    The first Ctrl-C interrupts main(); every later one is ignored.  After the
    exit handlers (atexit: logging, multiprocessing's finalizers) and the
    flush, os._exit skips the interpreter's teardown, about 10 ms a run on a
    2-vCPU host.  With a thread other than the main one alive, or a flush
    that fails, the process exits through sys.exit as before.
    """
    _signal.signal(_signal.SIGINT, _interrupt_once)
    try:
        code = main()
    except BrokenPipeError:
        code = _closed_pipe()
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        sys.exit(code)  # the interpreter's shutdown joins them first
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = _closed_pipe()
    except (OSError, ValueError):
        sys.exit(code)  # the teardown flushes again and reports the error
    os._exit(code)


if __name__ == "__main__":
    entry()
