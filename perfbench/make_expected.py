"""Record the benchmark's expected outputs from the library into expected.json.

    PYTHONPATH=src python3 perfbench/make_expected.py

Takes a few minutes on two cores.  For each language the workloads use, it
counts with the library for k = 1..L and solves the triangular system
C_L(k) = sum_d P[L][d] * k(k-1)...(k-d+1) for the pattern table P, which then
gives exact counts for every k.  The table is checked against a further
library count at k = L + 1, and every certificate the workloads ask for is
checked to exist.  Audit outputs are recorded from the CLI as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import workloads as W
from powfree import CountSeries, Threshold, certify, count_free, count_tail_restricted
from powfree.cli import main as cli_main


def library_counts(lang, k, length):
    num, den, strict, tail_max = lang
    t = Threshold(num, den, strict)
    if tail_max is None:
        return count_free(k, t, length, "canonical", workers=2).counts
    return count_tail_restricted(k, t, tail_max, length, "canonical", workers=2).counts


def pattern_table(lang, length):
    by_k = {k: library_counts(lang, k, length) for k in range(1, length + 1)}
    table = [[1]]
    for i in range(1, length + 1):
        row = [0]
        for d in range(1, i + 1):
            rest = by_k[d][i] - sum(p * W.perm(d, e) for e, p in enumerate(row))
            p, r = divmod(rest, math.factorial(d))
            if r:
                raise SystemExit(f"{W.lang_key(lang)}: table does not divide at L={i}, d={d}")
            row.append(p)
        table.append(row)
    return table


def write_expected(path: Path, doc: dict) -> None:
    """One line per table and per audit, so a change shows as a readable diff."""
    parts = []
    for section in ("tables", "audits"):
        items = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in doc[section].items())
        parts.append(f' "{section}": {{\n{items}\n }}')
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def main() -> None:
    doc = {"tables": {}, "audits": {}}
    for lang, length in sorted(W.table_lengths().items(), key=lambda kv: kv[1]):
        table = pattern_table(lang, length)
        doc["tables"][W.lang_key(lang)] = table
        print(f"{W.lang_key(lang)}: L={length}", flush=True)
    path = W.EXPECTED_PATH
    write_expected(path, doc)
    expected = W.Expected(path)

    for lang, length in W.table_lengths().items():
        k = length + 1
        if list(library_counts(lang, k, length)) != expected.counts(lang, k, length):
            raise SystemExit(f"{W.lang_key(lang)}: table disagrees with the library at k={k}")
    for lang in W.SWEEP_LANGS:
        if lang[3] is None:
            for k in range(W.CERTIFY_MIN_K, W.SWEEP_KS[-1] + 1):
                for length in (W.SWEEP_STORED_LEN, W.SWEEP_STORED_LEN + 1):
                    series = CountSeries(k, Threshold(*lang[:3]),
                                         tuple(expected.counts(lang, k, length)), "canonical")
                    certify(k, lang[0], lang[2], series)

    for k, n, plus, i in W.AUDITS:
        out = io.StringIO()
        argv = ["audit", "--k", str(k), "--n", str(n), "--len", str(i), "--no-timestamp"]
        with contextlib.redirect_stdout(out):
            code = cli_main(argv + (["--plus"] if plus else []))
        if code != 0:
            raise SystemExit(f"audit {argv} exited {code}")
        doc["audits"][W.audit_key(k, n, plus, i)] = json.loads(out.getvalue())
    write_expected(path, doc)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
