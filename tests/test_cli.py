"""Command-line surface: schemas, exit codes, caching, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powfree
from powfree import REPORT_COLUMNS, CountCache, Threshold, count_free, count_tail_restricted
from powfree.cli import entry, main


def thue_morse_ternary(length, offset=0):
    """Square-free word over a, b, c: first differences of the Thue-Morse word."""
    t = [bin(i).count("1") & 1 for i in range(offset, offset + length + 1)]
    return "".join("abc"[t[i + 1] - t[i] + 1] for i in range(length))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCheck:
    def test_square_detected(self, capsys):
        code, out = run(capsys, "check", "hotshots", "--beta", "2", "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["free"] is False
        assert doc["witness"]["period"] == 4
        assert doc["witness"]["length"] == 8
        assert doc["witness"]["exponent_num"] == "2"

    def test_square_free_word(self, capsys):
        code, out = run(capsys, "check", "minimize", "--beta", "2", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["free"] is True

    def test_plus_flag(self, capsys):
        code, out = run(capsys, "check", "aba", "--beta", "3/2", "--plus", "--no-timestamp")
        assert code == 0

    def test_integer_word(self, capsys):
        code, out = run(capsys, "check", "1,2,1", "--beta", "3/2", "--no-timestamp")
        assert code == 1
        assert json.loads(out)["witness"]["period"] == 2

    def test_csv_schema(self, capsys):
        code, out = run(capsys, "check", "hotshots", "--beta", "2", "--out", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "word,beta,plus,free,start,period,length,exponent_num,exponent_den"
        assert lines[1] == "hotshots,2,false,false,0,4,8,2,1"

    @pytest.mark.parametrize("plus", [False, True])
    def test_long_square_free_word(self, capsys, plus):
        word = thue_morse_ternary(2400, offset=1234)
        flags = ["--plus"] if plus else []
        code, out = run(capsys, "check", word, "--beta", "2", *flags, "--no-timestamp")
        assert code == 0
        assert json.loads(out)["free"] is True
        # "aaa" planted 30 letters from the end: a square, or a cube under 2+.
        p = len(word) - 30
        planted = word[:p] + word[p - 1] * 2 + word[p:-2]
        code, out = run(capsys, "check", planted, "--beta", "2", *flags, "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        length = 3 if plus else 2
        assert doc["free"] is False
        assert (doc["witness"]["start"], doc["witness"]["period"], doc["witness"]["length"]) == \
            (p - 1, 1, length)

    def test_bad_word_is_usage_error(self, capsys):
        code, _ = run(capsys, "check", "abc!", "--beta", "2")
        assert code == 2

    def test_bad_beta_is_usage_error(self, capsys):
        code, _ = run(capsys, "check", "abc", "--beta", "1")
        assert code == 2


class TestCount:
    def test_json_counts_are_strings(self, capsys):
        code, out = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "7",
                        "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == ["1", "3", "6", "12", "18", "30", "42", "60"]

    def test_base_case_series(self, capsys):
        code, out = run(capsys, "count", "--k", "5", "--beta", "3/2", "--max-len", "2",
                        "--no-timestamp")
        assert json.loads(out)["counts"] == ["1", "5", "20"]

    def test_plus_series(self, capsys):
        code, out = run(capsys, "count", "--k", "2", "--beta", "2", "--plus",
                        "--max-len", "4", "--no-timestamp")
        assert json.loads(out)["counts"] == ["1", "2", "4", "6", "10"]

    def test_csv_rows(self, capsys):
        code, out = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "3",
                        "--out", "csv")
        assert out.splitlines() == ["i,count", "0,1", "1,3", "2,6", "3,12"]

    def test_tail_max(self, capsys):
        code, out = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "3",
                        "--tail-max", "1", "--no-timestamp")
        doc = json.loads(out)
        assert doc["counts"] == ["1", "3", "6", "12"]
        assert doc["tail_max"] == 1

    def test_budget_exceeded_exit_code(self, capsys):
        code, _ = run(capsys, "count", "--k", "10", "--beta", "2", "--max-len", "9",
                      "--engine", "naive")
        assert code == 3
        with pytest.raises(SystemExit) as info:  # the retired engine is a usage error
            main(["count", "--k", "3", "--beta", "2", "--max-len", "4",
                  "--engine", "incremental"])
        assert info.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, workers):
        with pytest.raises(SystemExit) as info:
            main(["count", "--k", "3", "--beta", "2", "--max-len", "4", "--workers", workers])
        assert info.value.code == 2

    def test_big_counts_round_trip(self, capsys):
        code, out = run(capsys, "count", "--k", "12", "--beta", "3/2", "--max-len", "8",
                        "--engine", "canonical", "--no-timestamp")
        doc = json.loads(out)
        expected = count_free(12, Threshold(3, 2), 8, "canonical")
        assert tuple(int(c) for c in doc["counts"]) == expected.counts


class TestCountCache:
    def test_cache_written_and_reused(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "8",
            "--cache", str(path), "--no-timestamp")
        assert path.exists()
        first = path.read_bytes()
        # shorter request is served from the cache without rewriting it
        code, out = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "5",
                        "--cache", str(path), "--no-timestamp")
        assert json.loads(out)["counts"] == ["1", "3", "6", "12", "18", "30"]
        assert path.read_bytes() == first
        # longer request extends the stored series
        run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "10",
            "--cache", str(path), "--no-timestamp")
        assert CountCache(path).get(3, Threshold(2)).max_length == 10

    def test_env_var_cache(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("POWFREE_CACHE", str(path))
        run(capsys, "count", "--k", "2", "--beta", "2", "--max-len", "4", "--no-timestamp")
        assert path.exists()

    def test_cache_list_and_clear(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "4",
            "--cache", str(path), "--no-timestamp")
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--no-timestamp")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries == [{"k": 3, "beta": "2", "plus": False, "tail_max": None,
                            "method": "canonical", "max_length": 4}]
        code, _ = run(capsys, "cache", "clear", "--cache", str(path), "--no-timestamp")
        assert code == 0 and not path.exists()

    def test_records_of_the_retired_engine_still_load(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        record = count_free(3, Threshold(2), 4, "canonical").to_record()
        record["method"] = "incremental"  # written by releases that had that engine
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        stored = CountCache(path).get(3, Threshold(2))
        assert stored.counts == (1, 3, 6, 12, 18) and stored.method == "canonical"
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--no-timestamp")
        assert code == 0
        assert json.loads(out)["entries"] == [{"k": 3, "beta": "2", "plus": False,
                                               "tail_max": None, "method": "canonical",
                                               "max_length": 4}]

    def test_csv_list_and_clear(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CountCache(path)
        cache.put(count_free(3, Threshold(2), 4, "canonical"))
        cache.put(count_tail_restricted(4, Threshold(3, 2, True), 2, 5, "canonical"))
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--out", "csv")
        assert code == 0
        assert out.splitlines() == ["k,beta,plus,tail_max,method,max_length",
                                    "3,2,false,,canonical,4",
                                    "4,3/2,true,2,canonical,5"]
        code, out = run(capsys, "cache", "clear", "--cache", str(path), "--out", "csv")
        assert code == 0 and out == "" and not path.exists()

    def test_cache_without_path_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("POWFREE_CACHE", raising=False)
        code, _ = run(capsys, "cache", "list")
        assert code == 2


class TestCertify:
    def test_certificate_document(self, capsys):
        code, out = run(capsys, "certify", "--k", "20", "--n", "3", "--max-len", "10",
                        "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["verified_up_to"] == 9
        witness = int(doc["x_witness_num"]) / int(doc["x_witness_den"])
        assert abs(witness - 17.8815273) < 1e-4

    def test_no_witness(self, capsys):
        code, out = run(capsys, "certify", "--k", "2", "--n", "2", "--plus",
                        "--no-timestamp")
        assert code == 1
        assert json.loads(out)["status"] == "no-witness"

    def test_csv_row_is_the_json_fields(self, capsys):
        argv = ("certify", "--k", "20", "--n", "3", "--max-len", "10")
        _, out = run(capsys, *argv, "--no-timestamp")
        doc = json.loads(out)
        code, out = run(capsys, *argv, "--out", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == ("k,n,plus,x_witness_num,x_witness_den,condition_margin_num,"
                          "condition_margin_den,verified_up_to,series_digest")
        assert row.split(",") == ["20", "3", "false"] + [str(doc[c]) for c in header.split(",")[3:]]
        assert doc["series_digest"] == count_free(20, Threshold.dejean(3), 10).digest()

    def test_no_witness_csv(self, capsys):
        code, out = run(capsys, "certify", "--k", "2", "--n", "2", "--plus", "--out", "csv")
        assert code == 1
        assert out.splitlines() == ["k,n,plus,status", "2,2,true,no-witness"]

    def test_k_equal_n_without_plus_is_usage_error(self, capsys):
        code, _ = run(capsys, "certify", "--k", "3", "--n", "3")
        assert code == 2

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr("powfree.cli.certify", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["certify", "--k", "20", "--n", "3", "--max-len", "4", "--no-timestamp"])

    def test_poisoned_cache_trips_lemma_canary(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        good = count_free(10, Threshold.dejean(3), 4, "canonical")
        CountCache(path).put(good.replace(counts=(1, 10, 90, 9, 1)))
        code, _ = run(capsys, "certify", "--k", "10", "--n", "3", "--max-len", "4",
                      "--cache", str(path))
        assert code == 4


class TestAudit:
    def test_csv_schema_and_exit(self, capsys):
        code, out = run(capsys, "audit", "--k", "4", "--n", "3", "--len", "6",
                        "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,F_j_count,bound,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_json_document(self, capsys):
        code, out = run(capsys, "audit", "--k", "3", "--n", "2", "--len", "5",
                        "--no-timestamp")
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert doc["suffix_determination"] is True
        assert doc["f_total"] == doc["k_Ci_minus_Cnext"]
        assert doc["covered"] >= doc["f_total"]

    @pytest.mark.parametrize("length", ["-1", "-2"])
    def test_negative_length_is_usage_error(self, capsys, length):
        code, out = run(capsys, "audit", "--k", "3", "--n", "2", "--len", length)
        assert code == 2 and out == ""

    def test_certificate_scale(self, capsys):
        code, out = run(capsys, "audit", "--k", "20", "--n", "3", "--len", "11",
                        "--no-timestamp")
        doc = json.loads(out)
        assert code == 0 and doc["all_pass"] is True
        assert doc["suffix_determination"] is True
        assert doc["f_total"] == doc["k_Ci_minus_Cnext"]

    def test_budget_exceeded_exit_code(self, capsys):
        code, out = run(capsys, "audit", "--k", "20", "--n", "3", "--len", "15")
        assert code == 3 and out == ""


class TestReport:
    def test_csv_columns(self, capsys):
        code, out = run(capsys, "report", "--n", "3", "--k", "20,30", "--max-len", "4",
                        "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 3

    def test_json_nested_by_n_then_k(self, capsys):
        code, out = run(capsys, "report", "--n", "2..3", "--k", "20", "--max-len", "4",
                        "--no-timestamp")
        doc = json.loads(out)
        assert set(doc["rows_by_n_then_k"]) == {"2", "3"}
        entry = doc["rows_by_n_then_k"]["3"]["20"]
        assert entry["target"] == pytest.approx(17.9)
        num, den = entry["witness"].split("/")
        assert abs(int(num) / int(den) - 17.8815273) < 1e-4

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run(capsys, "report", "--n", "4..2", "--k", "20")
        assert code == 2


class TestReproducibility:
    def test_byte_identical_without_timestamp(self, capsys):
        _, first = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "6",
                       "--no-timestamp")
        _, second = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "6",
                        "--no-timestamp")
        assert first == second

    def test_timestamp_is_the_only_difference(self, capsys):
        _, first = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "6")
        _, second = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "6")
        a, b = json.loads(first), json.loads(second)
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b


CERTIFICATE_FIELDS = ["k", "n", "plus", "x_witness_num", "x_witness_den", "condition_margin_num",
                      "condition_margin_den", "verified_up_to", "series_digest"]


class TestOutputShapes:
    @pytest.mark.parametrize("argv,keys", [
        (["check", "hotshots", "--beta", "2"],
         ["command", "word", "beta", "plus", "free", "witness"]),
        (["count", "--k", "3", "--beta", "2", "--max-len", "3"],
         ["command", "k", "num", "den", "strict", "tail_max", "method", "counts"]),
        (["certify", "--k", "20", "--n", "3", "--max-len", "6"],
         ["command", "status", *CERTIFICATE_FIELDS]),
        (["certify", "--k", "2", "--n", "2", "--plus"],
         ["command", "status", "k", "n", "plus", "detail"]),
        (["audit", "--k", "3", "--n", "2", "--len", "4"],
         ["command", "k", "n", "plus", "i", "rows", "f_total", "k_Ci_minus_Cnext", "covered",
          "suffix_determination", "all_pass"]),
        (["report", "--n", "3", "--k", "20", "--max-len", "4"],
         ["command", "columns", "rows_by_n_then_k"]),
    ], ids=["check", "count", "certify", "certify-no-witness", "audit", "report"])
    def test_json_key_order(self, capsys, argv, keys):
        _, out = run(capsys, *argv, "--no-timestamp")
        assert list(json.loads(out)) == keys
        _, out = run(capsys, *argv)
        assert list(json.loads(out)) == keys + ["generated_at"]

    def test_nested_json_key_order(self, capsys):
        _, out = run(capsys, "check", "hotshots", "--beta", "2", "--no-timestamp")
        assert list(json.loads(out)["witness"]) == ["start", "period", "length", "exponent_num",
                                                    "exponent_den", "tail_length"]
        _, out = run(capsys, "audit", "--k", "3", "--n", "2", "--len", "4", "--no-timestamp")
        rows = json.loads(out)["rows"]
        assert rows and all(list(r) == ["j", "F_j_count", "bound", "pass"] for r in rows)
        _, out = run(capsys, "report", "--n", "3", "--k", "20", "--max-len", "4",
                     "--no-timestamp")
        assert list(json.loads(out)["rows_by_n_then_k"]["3"]["20"]) == list(REPORT_COLUMNS[2:])

    def test_cache_json_key_order(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        CountCache(path).put(count_free(3, Threshold(2), 4, "canonical"))
        _, out = run(capsys, "cache", "list", "--cache", str(path), "--no-timestamp")
        doc = json.loads(out)
        assert list(doc) == ["command", "action", "path", "entries"]
        assert list(doc["entries"][0]) == ["k", "beta", "plus", "tail_max", "method", "max_length"]
        _, out = run(capsys, "cache", "clear", "--cache", str(path), "--no-timestamp")
        assert list(json.loads(out)) == ["command", "action", "path"]


class TestEntryPoint:
    @pytest.mark.parametrize("word,code,free", [("hotshots", 1, False), ("minimize", 0, True)])
    def test_exit_code_of_the_console_script(self, capsys, monkeypatch, word, code, free):
        monkeypatch.setattr(sys, "argv", ["powfree", "check", word, "--beta", "2",
                                          "--no-timestamp"])
        with pytest.raises(SystemExit) as info:
            entry()
        assert info.value.code == code
        assert json.loads(capsys.readouterr().out)["free"] is free

    @staticmethod
    def _loaded_after_import(names, *flags):
        """Which of names a fresh interpreter, run with flags, holds after import powfree.cli."""
        src = str(Path(powfree.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        probe = f"import sys, powfree.cli; print(*sorted(set({names!r}) & set(sys.modules)))"
        out = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        return out.split()

    def test_import_leaves_out_the_process_pool(self):
        names = ("multiprocessing", "concurrent.futures.process")
        assert self._loaded_after_import(names) == []

    def test_import_leaves_out_dataclasses_and_logging(self):
        # Each of these costs milliseconds of every invocation's start-up.
        assert self._loaded_after_import(("dataclasses", "inspect", "logging")) == []

    def test_import_leaves_out_tempfile(self):
        # -S skips the site hooks, some of which (a certifi .pth) load tempfile themselves.
        assert self._loaded_after_import(("random", "tempfile"), "-S") == []

    def test_import_loads_every_traced_module(self):
        # perfbench/launcher.py looks each module up in sys.modules to wrap its calls.
        names = tuple(f"powfree.{m}"
                      for m in ("analyze", "bounds", "cache", "cli", "counting", "words"))
        assert self._loaded_after_import(names) == sorted(names)
