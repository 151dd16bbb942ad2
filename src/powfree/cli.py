"""Command-line interface.

Commands: check, count, certify, audit, report, cache.  One option table holds each command's
arguments: main reads a plain command line with it (_parse), and imports argparse, which builds
its parser from the same table, only for help, usage errors and other spellings.  Each command
builds its result once, as a JSON document and the rows of a CSV table, and one emitter
(_output._emit) prints it to stdout as JSON (default) or CSV; cache list hands over its rows as
an iterator, and each row is made as it is written.  Counts and exact rationals are always
emitted as decimal strings so downstream tools never lose precision.

Exit codes: 0 success (word free / all checks pass), 1 negative result (violation found, or no
witness exists), 2 usage error (ValidationError), 3 work budget exceeded, 4 exactly-checked
inequality failed (internal bug canary), 130 interrupted (Ctrl-C), 141 stdout's reader closed
the pipe.  Any other exception is a bug and is not caught.  entry() ends the process with
os._exit once the output is flushed and the exit handlers have run.
"""

from __future__ import annotations

import _signal  # loaded at every start-up, unlike signal
import atexit
import os
import re
import sys
from types import SimpleNamespace

# analyze, bounds, cache and counting are the package's lazy modules: each runs at its first
# attribute read, as a command's line is read (--budget, --engine, --workers) or in its cmd_*
# function, so a command runs only the layers it uses.
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
        series = counting.count_free(k, t, max_length, method, workers=args.workers, budget=budget)
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
        "start": found.start, "period": found.period, "length": found.length,
        "exponent_num": str(found.exponent[0]), "exponent_den": str(found.exponent[1]),
        "tail_length": found.tail_length}
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
    # counting runs first, as with --workers: run from cache's import, after json and pathlib,
    # it raised a cached certify's peak RSS by 0.05-0.13 MB.
    budget = counting.DEFAULT_NAIVE_BUDGET
    try:
        # One witness search, before any count; a shorter series stays a usage error, as
        # certify_series reports it.
        x = bounds._witness(args.k, t) if args.max_len >= 2 else None
        series = _series_for(args.k, t, args.max_len, "canonical", None, args, budget)
        cert = bounds.certify_series(series, witness=x)
    except NoWitnessError as exc:
        _emit(args, {"command": "certify", "status": "no-witness", **fields, "detail": str(exc)},
              [{**fields, "status": "no-witness"}], (*fields, "status"))
        return EXIT_NEGATIVE
    fields.update(x_witness_num=str(cert.x_witness_num), x_witness_den=str(cert.x_witness_den),
                  condition_margin_num=str(cert.condition_margin_num),
                  condition_margin_den=str(cert.condition_margin_den),
                  verified_up_to=cert.verified_up_to, series_digest=cert.series_digest)
    _emit(args, {"command": "certify", "status": "ok", **fields}, [fields], tuple(fields))
    return EXIT_OK


def cmd_audit(args) -> int:
    t, given = _threshold(args)
    audit = analyze.fj_audit(args.k, t, args.len, budget=args.budget)
    # fj_audit raises LemmaViolationError (exit 4) for a row above its bound, so every row passes.
    rows = [{"j": r.period, "F_j_count": r.count, "bound": r.bound, "pass": True}
            for r in audit.rows]
    doc = {"command": "audit", "k": audit.k, **given, "plus": t.strict, "i": audit.i, "rows": rows,
           "f_total": audit.f_total, "k_Ci_minus_Cnext": audit.k * audit.c_i - audit.c_next,
           "covered": sum(r["F_j_count"] for r in rows),
           "suffix_determination": audit.suffix_determined, "all_pass": audit.suffix_determined}
    _emit(args, doc, rows, ("j", "F_j_count", "bound", "pass"))
    return EXIT_OK if audit.suffix_determined else EXIT_LEMMA


def cmd_report(args) -> int:
    columns = analyze.REPORT_COLUMNS
    rows = [{c: getattr(r, c) for c in columns}
            for r in analyze.conjecture_report(parse_int_values(args.n), parse_int_values(args.k),
                                               max_length=args.max_len, tail_max=args.tail_max,
                                               workers=args.workers)]
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
    try:
        counting._check_workers(workers := int(text))
        return workers
    except ValidationError as exc:
        message = str(exc)
    except ValueError:
        message = f"invalid int value: {text!r}"
    import argparse  # only a refusal needs it
    raise argparse.ArgumentTypeError(message) from None


# The option table: per command, its summary, the function that runs it and its arguments in
# --help's order, each a name and add_argument's keywords; the rows marked exclusive are one
# required group.  _arguments reads a callable default or choices: no layer runs at import.
_OUT = "--out", dict(choices=("json", "csv"), default="json", help="output format (default json)")
_CACHE = "--cache", dict(metavar="PATH", help="count cache file (default $POWFREE_CACHE if set)")
_WORKERS = "--workers", dict(type=_worker_count, default=lambda: os.cpu_count() or 1,
                             help="parallel workers for long enumerations, at most one per core "
                                  "(default: available cores)")
_BUDGET = "--budget", dict(type=int, default=lambda: counting.DEFAULT_NAIVE_BUDGET,
                           help="work budget: candidate words k**L for the naive engine, "
                                "letters of the next pattern level for audit")
_STAMP = "--no-timestamp", dict(action="store_true",
                                help="omit the generated_at field for byte-reproducible output")
_BETA = dict(help="exponent bound, 'p' or 'p/q'")
_PLUS = "--plus", dict(action="store_true")
_LANGUAGE = (("--k", dict(type=int, required=True)),
             ("--n", dict(type=int, help="threshold is n/(n-1)", exclusive=True)),
             ("--beta", dict(_BETA, exclusive=True)), _PLUS)
_TABLE = {
    "check": ("test a word for forbidden powers", cmd_check, (
        _OUT, _STAMP, ("word", dict(help="letters a..z, or comma-separated integers")),
        ("--beta", dict(_BETA, required=True)),
        ("--plus", dict(action="store_true", help="forbid only exponents strictly above beta")))),
    "count": ("count threshold-free words of each length", cmd_count, (
        _OUT, _CACHE, _WORKERS, _BUDGET, _STAMP,
        ("--k", dict(type=int, required=True, help="alphabet size")),
        ("--beta", dict(_BETA, required=True)), _PLUS,
        ("--max-len", dict(type=int, required=True, help="largest length to count")),
        ("--engine", dict(choices=lambda: counting.METHODS, default="canonical")),
        ("--tail-max", dict(type=int,
                            help="restrict to forbidden powers with tail at most this long")))),
    "certify": ("produce an exactly-checked growth lower-bound certificate", cmd_certify, (
        _OUT, _CACHE, _WORKERS, _STAMP, *_LANGUAGE,
        ("--max-len", dict(type=int, default=10, help="series length to verify against")))),
    "audit": ("exhaustive per-period census of rejected extensions", cmd_audit, (
        _OUT, _BUDGET, _STAMP, *_LANGUAGE,
        ("--len", dict(type=int, required=True, help="prefix length i; words of length i+1")))),
    "report": ("exploratory table of bounds, targets, and enumerations", cmd_report, (
        _OUT, _WORKERS, _STAMP, ("--n", dict(required=True, help="values, e.g. '2..4' or '2,3'")),
        ("--k", dict(required=True, help="values, e.g. '50,100,200'")),
        ("--max-len", dict(type=int, default=8)), ("--tail-max", dict(type=int, default=2)))),
    "cache": ("inspect or clear the count cache", cmd_cache, (
        _OUT, _CACHE, _STAMP,
        ("action", dict(choices=("list", "clear"), nargs="?", default="list")))),
}


def _arguments(command: str) -> list[tuple[str, dict]]:
    """command's rows of the table, with each callable default or choices read now."""
    return [(name, {k: v() if k in ("default", "choices") and callable(v) else v
                    for k, v in spec.items()}) for name, spec in _TABLE[command][2]]


def _parse(command: str | None, argv: list[str]) -> SimpleNamespace | None:
    """What build_parser(command).parse_args(argv) returns, if argv is command, options as the
    table spells them, each once with one value not starting with "-" that its type and choices
    accept, the positionals and every required option; else None (--opt=value, -h, "--", ...)."""
    if not argv or argv[0] != command:
        return None
    rows = _arguments(command)
    specs = dict(rows)
    positionals = [name for name in specs if not name.startswith("-")]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):  # an option, and its value unless it is a flag
            name, value = token, "" if "action" in specs.get(token, {}) else next(tokens, "-")
        else:
            name, value = positionals.pop(0) if positionals else None, token
        spec = specs.get(name)
        if spec is None or name in given or value.startswith("-"):
            return None
        try:
            value = True if "action" in spec else spec.get("type", str)(value)
        except Exception:  # argparse converts it again, and refuses it or raises as it would
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[name] = value
    exclusive = [name in given for name, spec in rows if spec.get("exclusive")]
    if (exclusive and sum(exclusive) != 1 or any(specs[n].get("nargs") != "?" for n in positionals)
            or any(spec.get("required") and name not in given for name, spec in rows)):
        return None
    return SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"):
            given.get(name, spec.get("default", False if "action" in spec else None))
        for name, spec in rows}, func=_TABLE[command][1])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the arguments of command only (none for ""), or of
    all six if command is None.  Help and usage errors read the same either way."""
    import argparse

    parser = argparse.ArgumentParser(prog="powfree", description="Exact toolkit for power-free "
                                     "words: detection, counting, growth-rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, _) in _TABLE.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            rows = _arguments(name)
            group = (any("exclusive" in spec for _, spec in rows)
                     and p.add_mutually_exclusive_group(required=True))
            for flag, spec in rows:
                (group if spec.pop("exclusive", False) else p).add_argument(flag, **spec)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command is the first argument that names one: the parent parser has no option that
    # takes a value, and its usage errors read the same without the commands' arguments.
    command = next((arg for arg in argv if arg in _TABLE), None)
    # Counts and rationals are exact at any size: no limit on int-str conversions (CPython's
    # default is 4,300 digits) while main runs; the caller's is back when main returns or raises.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # argparse only for what _parse leaves to it: help, usage errors, other spellings.
        args = _parse(command, argv) or build_parser(command or "").parse_args(argv)
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

    The first Ctrl-C interrupts main(); every later one is ignored.  After the exit handlers
    (atexit: logging, multiprocessing's finalizers) and the flush, os._exit skips the
    interpreter's teardown, about 10 ms a run on a 2-vCPU host.  With a thread other than the
    main one alive, or a flush that fails, the process exits through sys.exit as before.
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
