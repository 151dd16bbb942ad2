"""Per-layer metrics from the spans the launcher writes.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Every `.s` and `.self_s` metric is a sum of self times
over all CLI processes of a run; `.self_s` marks the spans that have traced
children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from launcher import COUNTING, SPAN_NAMES

WITH_CHILDREN = ("cli.main", "analyze.fj_audit", "analyze.conjecture_report")


def read_spans(path: Path) -> list[dict]:
    """Spans of one CLI process; none when the process died before writing them."""
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, run_start, run_end = 0.0, None, None
        pieces = sorted((max(spans[c]["start"], start), min(spans[c]["end"], end))
                        for c in children[i])
        for a, b in pieces:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over the span lists of a run's CLI processes."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    letters = terms = gets = hits = 0
    count_cpu = count_wall = 0.0
    for spans in processes:
        names = {span["name"] for span in spans}
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span["name"], span["attrs"]
            self_s[name] += own
            calls[name] += 1
            letters += attrs.get("letters", 0)
            terms += attrs.get("terms", 0)
            if name in COUNTING:
                count_cpu += attrs["cpu_s"]
                count_wall += span["end"] - span["start"]
        # A get is a hit when the process then had nothing to count.
        n_gets = sum(1 for span in spans if span["name"] == "cache.get")
        gets += n_gets
        if not names & set(COUNTING):
            hits += n_gets
    out = {"cli.import_s": self_s["cli.import"]}
    for name in SPAN_NAMES:
        out[name + (".self_s" if name in WITH_CHILDREN else ".s")] = self_s[name]
        out[name + ".calls"] = calls[name]
    out["words.letters_checked"] = letters
    out["counting.terms"] = terms
    out["counting.cpu_over_wall"] = count_cpu / count_wall if count_wall else 0.0
    out["cache.hit_ratio"] = hits / gets if gets else 0.0
    return out

