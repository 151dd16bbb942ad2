"""Tests of the benchmark itself: seeded inputs, output checks and span arithmetic."""

import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return W.Expected()


def _argvs(plan):
    return [op.argv for op in plan.ops]


def test_one_seed_gives_the_same_inputs(expected):
    for name in W.WORKLOADS:
        assert _argvs(W.build(name, 7, 2)) == _argvs(W.build(name, 7, 2))
    assert W.sweep_cache_text(7, expected) == W.sweep_cache_text(7, expected)


def test_two_seeds_give_different_inputs(expected):
    for name in W.WORKLOADS:
        assert _argvs(W.build(name, 7, 2)) != _argvs(W.build(name, 8, 2))
    assert W.sweep_cache_text(7, expected) != W.sweep_cache_text(8, expected)


def test_op_mix_and_sizes_do_not_depend_on_the_seed():
    def mix(plan):
        return Counter((op.command, W.lang_key(op.expect["lang"]) if "lang" in op.expect else None,
                        op.expect.get("len"), op.expect.get("witness") is None)
                       for op in plan.ops)
    for name in W.WORKLOADS:
        assert mix(W.build(name, 1, 2)) == mix(W.build(name, 2, 2))


def test_sweep_mixes_hits_and_misses_on_distinct_keys():
    plan = W.build("sweep", 5, 2)
    counted = [op.expect for op in plan.ops if op.command in ("certify", "count")]
    keys = [(e["lang"], e["k"]) for e in counted]
    assert len(keys) == len(set(keys))
    misses = sum(e["len"] > W.SWEEP_STORED_LEN for e in counted)
    assert 0.25 <= misses / len(counted) <= 0.35
    assert len(plan.ops) >= run.MIN_OPS_FOR_P90


def test_pinned_tables_agree_with_the_oracle(expected):
    oracles = W.load_oracles()
    for key in expected.tables:
        lang = next(lang for lang in W.table_lengths() if W.lang_key(lang) == key)
        num, den, strict, tail_max = lang
        assert expected.counts(lang, 3, 5) == oracles.count_series(3, num, den, strict, 5, tail_max)


def test_planted_witness_is_the_earliest_violation(monkeypatch):
    oracles = W.load_oracles()
    monkeypatch.setattr(W, "WORD_LEN", 40)
    monkeypatch.setattr(W, "PLANT_FROM_END", (4, 9))
    for seed in range(5):
        word, p = W.detect_word(random.Random(seed), plant=True)
        for op in W._check_ops(word, p):
            hits = oracles.all_violations([ord(c) for c in word], 2, 1, op.expect["plus"])
            start, period, length = min(hits, key=lambda h: (h[0] + h[2], h[1], h[2]))
            w = op.expect["witness"]
            assert (start, period, length) == (w["start"], w["period"], w["length"])
        free, _ = W.detect_word(random.Random(seed), plant=False)
        assert oracles.is_free([ord(c) for c in free], 2, 1, False)


def _run_one(op, cache_text, directory):
    cache = directory / "cache.jsonl"
    cache.write_text(cache_text)
    plan = W.Plan("sweep", 0, 1, [op], uses_cache=True)
    return run.run_pass(plan, run.program_env(cache), directory, False, time.monotonic() + 60)


def test_tampered_cache_record_fails_the_sweep(expected, tmp_path):
    plan = W.build("sweep", 3, 1)
    hit = next(op for op in plan.ops
               if op.command == "certify" and op.expect["len"] == W.SWEEP_STORED_LEN)
    lang, k = hit.expect["lang"], hit.expect["k"]
    text = W.sweep_cache_text(3, expected)
    assert not run.problems_of(_run_one(hit, text, tmp_path), expected)

    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if (rec["num"], rec["den"], rec["strict"], rec["tail_max"], rec["k"]) == (*lang, k):
            last = rec["counts"][-1]
            digit = int(last[-1])
            rec["counts"][-1] = last[:-1] + str(digit + 1 if digit < 9 else digit - 1)
            lines[i] = json.dumps(rec) + "\n"
            break
    else:
        pytest.fail("hit key not in the cache")
    problems = run.problems_of(_run_one(hit, "".join(lines), tmp_path), expected)
    assert len(problems) == 1


def test_launcher_records_spans(tmp_path):
    spans_path = tmp_path / "op.spans"
    proc = subprocess.run([sys.executable, str(run.LAUNCHER), str(spans_path),
                           "check", "hotshots", "--beta", "2"],
                          env=run.program_env(None), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["witness"]["period"] == 4
    spans = tracing.read_spans(spans_path)
    assert [s["name"] for s in spans] == ["cli.import", "cli.main", "words.find_violation"]
    assert spans[2]["parent"] == 1 and spans[2]["attrs"]["letters"] == 8
    metrics = tracing.layer_metrics([spans])
    assert metrics["words.find_violation.calls"] == 1 and metrics["cli.main.calls"] == 1


def _span(name, start, end, parent, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("cache.get", 1.0, 4.0, 0),
        _span("cache.put", 3.0, 6.0, 0),      # overlaps its sibling: union [1, 6]
        _span("bounds.certify", 2.0, 3.0, 1),
        _span("cache.entries", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_over_processes():
    hit = [_span("cli.main", 0.0, 1.0, -1), _span("cache.get", 0.1, 0.3, 0)]
    miss = [_span("cli.main", 0.0, 5.0, -1), _span("cache.get", 0.1, 0.2, 0),
            _span("counting.count_free", 1.0, 3.0, 0, cpu_s=3.0, terms=11),
            _span("cache.put", 3.0, 4.0, 0)]
    m = tracing.layer_metrics([hit, miss])
    assert m["cache.hit_ratio"] == 0.5
    assert m["cache.get.calls"] == 2 and m["cache.put.calls"] == 1
    assert m["counting.cpu_over_wall"] == pytest.approx(1.5)
    assert m["counting.terms"] == 11
    assert m["cli.main.self_s"] == pytest.approx(0.8 + 1.9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(W.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
