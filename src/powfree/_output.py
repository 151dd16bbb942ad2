"""The command-line interface's one emitter: a command's result on stdout, as JSON or CSV.

It prints JSON's own types (str, int, float, bool, None, dict, list) and knows no rational
type: a command spells each exact rational as strings before it hands the result over.

Not in cli.py: without bytecode (PYTHONDONTWRITEBYTECODE) every invocation
compiles cli.py, after errors and words and before the layers its command
runs, so the size of cli.py adds to every command's peak RSS, while this
module is compiled after cli.py's compile has freed its memory.
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Iterable
from itertools import islice

# Characters per write of the JSON emitter, and rows per call of its encoder.
_EMIT_BATCH = 1 << 16
_EMIT_ROWS = 64


def _timestamp(ns: int) -> str:
    """UTC ISO 8601 of ns nanoseconds since the epoch, microseconds floored, as
    datetime.isoformat writes it: YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00, no fraction at 0 us."""
    seconds, us = divmod(ns // 1000, 1_000_000)
    t = time.gmtime(seconds)
    fraction = f".{us:06d}" if us else ""
    return (f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}T"
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}{fraction}+00:00")


def _emit(args, doc: dict, rows: Iterable[dict], columns) -> None:
    """Print one result: rows under columns as CSV (a missing field is a blank
    cell), or doc as JSON with a generated_at timestamp unless --no-timestamp.
    A value of doc that is rows itself is written a row at a time, so rows may
    be an iterator that makes each row as it is written."""
    if args.out == "csv":
        import csv  # only CSV output needs it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(row.get(c)) for c in columns] for row in rows)
        return
    if not args.no_timestamp:
        # Not datetime: importing it would cost every command ~0.4 MB of resident memory.
        doc["generated_at"] = _timestamp(time.time_ns())
    # The bytes of print(json.dumps(doc, indent=2)).  The rows are spliced into the text of
    # doc with an empty list in their place: neither the whole text nor a list of the rows is
    # held, and an unbuffered stdout (PYTHONUNBUFFERED) gets one write per batch of about 64 KiB.
    listed = next((key for key, value in doc.items() if value is rows), None)
    encode = json.JSONEncoder(indent=2).encode
    text = encode({**doc, listed: []} if listed else doc) + "\n"
    head, opening, tail = text.partition(f"\n  {encode(listed)}: [")
    batch, size, sep, rows = [head, opening], 0, "", iter(rows if listed else ())
    while chunk := list(islice(rows, _EMIT_ROWS)):
        # "[\n  {...},\n  {...}\n]" without its brackets, one level deeper.
        part = sep + encode(chunk)[1:-2].replace("\n", "\n  ")
        batch.append(part)
        size += len(part)
        sep = ","
        if size >= _EMIT_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    batch.append("\n  " + tail if sep else tail)
    sys.stdout.write("".join(batch))


def _csv_cell(value):
    """The CSV cell of value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value
