"""Command-line surface: schemas, exit codes, caching, reproducibility."""

import argparse
import contextlib
import errno
import io
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import powfree
from powfree import (REPORT_COLUMNS, CountCache, CountSeries, Threshold, certify_series,
                     count_free, count_tail_restricted, find_violation)
from powfree import _output, bounds, cli, counting
from powfree._output import _frac_str
from powfree.cli import main


def thue_morse_ternary(length, offset=0):
    """Square-free word over a, b, c: first differences of the Thue-Morse word."""
    t = [bin(i).count("1") & 1 for i in range(offset, offset + length + 1)]
    return "".join("abc"[t[i + 1] - t[i] + 1] for i in range(length))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def subprocess_env():
    """The environment, with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(powfree.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestCheck:
    def test_square_detected(self, capsys):
        code, out = run(capsys, "check", "hotshots", "--beta", "2", "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["free"] is False
        assert doc["witness"]["period"] == 4
        assert doc["witness"]["length"] == 8
        assert doc["witness"]["exponent_num"] == "2"

    def test_witness_is_that_of_the_bytes(self, capsys):
        # Detection reads only which letters are equal, so the bytes of hotshots, letters 104 to
        # 116, give the witness that check prints for hotshots read as 1..26.
        _, out = run(capsys, "check", "hotshots", "--beta", "2", "--no-timestamp")
        w = find_violation(b"hotshots", Threshold(2))
        assert json.loads(out)["witness"] == {
            "start": w.start, "period": w.period, "length": w.length,
            "exponent_num": str(w.exponent.numerator), "exponent_den": str(w.exponent.denominator),
            "tail_length": w.tail_length}

    def test_letters_from_text(self):
        assert cli.parse_cli_word("az") == (1, 26)
        assert cli.parse_cli_word("AbC") == (1, 2, 3)
        assert cli.parse_cli_word("3,300,0") == (3, 300, 0)  # find_violation refuses the 0
        with pytest.raises(ValueError):
            cli.parse_cli_word("a1")

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

    def test_bad_beta_is_usage_error(self, capsys):
        code, _ = run(capsys, "check", "abc", "--beta", "1")
        assert code == 2


@pytest.fixture
def digits_unlimited():
    """Lift CPython's int-str digit limit (3.10.7 on) for this test's own conversions."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


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
        # A retired engine and auto, once another name for the default, are usage errors.
        for engine in ("incremental", "auto"):
            with pytest.raises(SystemExit) as info:
                main(["count", "--k", "3", "--beta", "2", "--max-len", "4", "--engine", engine])
            assert info.value.code == 2
            assert f"invalid choice: '{engine}'" in capsys.readouterr().err

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
                            "max_length": 4}]
        code, _ = run(capsys, "cache", "clear", "--cache", str(path), "--no-timestamp")
        assert code == 0 and not path.exists()

    def test_records_of_the_retired_engine_still_load(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        record = count_free(3, Threshold(2), 4, "canonical").to_record()
        record["method"] = "incremental"  # written by releases that had that engine
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        stored = CountCache(path).get(3, Threshold(2))
        assert stored.counts == (1, 3, 6, 12, 18) and stored.method == "canonical"
        before = path.read_bytes()
        code, out = run(capsys, "count", "--k", "3", "--beta", "2", "--max-len", "3",
                        "--cache", str(path), "--no-timestamp")
        assert code == 0 and path.read_bytes() == before
        assert json.loads(out)["method"] == "canonical"
        assert json.loads(out)["counts"] == ["1", "3", "6", "12"]
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--no-timestamp")
        assert code == 0
        assert json.loads(out)["entries"] == [{"k": 3, "beta": "2", "plus": False,
                                               "tail_max": None, "max_length": 4}]

    def test_csv_list_and_clear(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CountCache(path)
        cache.put(count_free(3, Threshold(2), 4, "canonical"))
        cache.put(count_tail_restricted(4, Threshold(3, 2, True), 2, 5, "canonical"))
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--out", "csv")
        assert code == 0
        assert out.splitlines() == ["k,beta,plus,tail_max,max_length",
                                    "3,2,false,,4",
                                    "4,3/2,true,2,5"]
        code, out = run(capsys, "cache", "clear", "--cache", str(path), "--out", "csv")
        assert code == 0 and out == "" and not path.exists()

    def test_cache_without_path_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("POWFREE_CACHE", raising=False)
        code, _ = run(capsys, "cache", "list")
        assert code == 2

    def test_a_count_drops_a_record_not_in_lowest_terms(self, tmp_path):
        # No get or put asks for a 4/2 key: the count that stores 2/1 removes the 4/2 line,
        # and cache list then warns of nothing.
        path = tmp_path / "c.jsonl"
        record = {**count_free(3, Threshold(2), 3).to_record(), "num": 4, "den": 2}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")

        def cached(*argv):
            return subprocess.run([sys.executable, "-m", "powfree.cli", *argv, "--cache",
                                   str(path), "--no-timestamp"], env=subprocess_env(),
                                  capture_output=True, text=True, timeout=60)

        done = cached("count", "--k", "3", "--beta", "2", "--max-len", "3")
        assert done.returncode == 0 and json.loads(done.stdout)["counts"] == ["1", "3", "6", "12"]
        assert path.read_text() == json.dumps(count_free(3, Threshold(2), 3).to_record()) + "\n"
        done = cached("cache", "list")
        assert (done.returncode, done.stderr) == (0, "")
        assert [e["beta"] for e in json.loads(done.stdout)["entries"]] == ["2"]

    @pytest.mark.parametrize("field,value,k", [
        ("counts", "122222", 20),  # was read digit by digit
        ("counts", {"1": 0, "4": 1, "16": 2, "64": 3, "256": 4}, 20),  # was read by its keys
        ("strict", "false", 20),  # was listed as plus: true
        ("den", "2", 20),
        ("k", True, 1),  # was served as k=1
        ("tail_max", 0, 20),  # was served to count --tail-max 0
    ], ids=["counts-string", "counts-object", "strict-string", "den-string", "k-bool",
            "tail-max-zero"])
    def test_mistyped_records_are_skipped(self, tmp_path, field, value, k):
        path = tmp_path / "c.jsonl"
        record = count_free(20, Threshold(3, 2), 5).to_record()
        record[field] = value

        def run_cached(*argv):
            # Each run starts from the one record: a count that misses rewrites the file.
            path.write_text(json.dumps(record) + "\n", encoding="utf-8")
            return subprocess.run([sys.executable, "-m", "powfree.cli", *argv, "--cache",
                                   str(path), "--no-timestamp"], env=subprocess_env(),
                                  capture_output=True, text=True, timeout=60)

        done = run_cached("count", "--k", str(k), "--beta", "3/2", "--max-len", "4")
        expected = [str(c) for c in count_free(k, Threshold(3, 2), 4).counts]
        assert done.returncode == 0 and json.loads(done.stdout)["counts"] == expected
        done = run_cached("certify", "--k", "20", "--n", "3", "--max-len", "4")
        assert done.returncode == 0 and json.loads(done.stdout)["status"] == "ok"
        done = run_cached("cache", "list")
        assert done.returncode == 0 and json.loads(done.stdout)["entries"] == []
        assert done.stderr.startswith(f"skipping corrupt cache record {path}:1 (")

    @pytest.mark.parametrize("argv", [
        ["count", "--k", "3", "--beta", "2", "--max-len", "3"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "5"],
        ["cache", "list"],
        ["cache", "clear"],
    ], ids=["count", "certify", "cache-list", "cache-clear"])
    def test_a_directory_is_not_a_cache(self, capsys, monkeypatch, tmp_path, argv):
        code, out = run(capsys, *argv, "--cache", str(tmp_path), "--no-timestamp")
        assert code == 2 and out == ""
        monkeypatch.setenv("POWFREE_CACHE", str(tmp_path))
        assert main([*argv, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err == f"powfree {argv[0]}: cache path {tmp_path} is a directory, not a cache file\n"
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("argv", [
        ["count", "--k", "3", "--beta", "2", "--max-len", "3"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "5"],
        ["cache", "list"],
        ["cache", "clear"],
    ], ids=["count", "certify", "cache-list", "cache-clear"])
    def test_a_path_under_a_regular_file_is_a_usage_error(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "c.jsonl"
        assert main([*argv, "--cache", str(path), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"powfree {argv[0]}: cannot use cache file {path}: ")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root opens a file of any mode")
    @pytest.mark.parametrize("argv", [
        ["count", "--k", "3", "--beta", "2", "--max-len", "3"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "5"],
        ["cache", "list"],
    ], ids=["count", "certify", "cache-list"])
    def test_an_unreadable_cache_file_is_a_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        path.chmod(0)
        assert main([*argv, "--cache", str(path), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"powfree {argv[0]}: cannot use cache file {path}: Permission denied\n"

    @pytest.mark.parametrize("argv", [
        ["count", "--k", "3", "--beta", "2", "--max-len", "3"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "5"],
        ["cache", "list"],
    ], ids=["count", "certify", "cache-list"])
    def test_a_socket_is_an_unreadable_cache_file(self, capsys, tmp_path, argv):
        # open refuses a Unix socket with ENXIO, even for root, which opens a file of any mode.
        path = tmp_path / "c.jsonl"
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(path))
            assert main([*argv, "--cache", str(path), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"powfree {argv[0]}: cannot use cache file {path}: "
                       f"{os.strerror(errno.ENXIO)}\n")

    def test_a_line_that_is_not_utf8_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        stored = json.dumps(count_free(20, Threshold(3, 2), 5).to_record()).encode() + b"\n"

        def run_cached(*argv):
            path.write_bytes(b"\xff\xfe bad\n" + stored)
            return subprocess.run([sys.executable, "-m", "powfree.cli", *argv, "--cache",
                                   str(path), "--no-timestamp"], env=subprocess_env(),
                                  capture_output=True, text=True, timeout=60)

        warning = f"skipping corrupt cache record {path}:1 (line is not UTF-8)\n"
        done = run_cached("count", "--k", "20", "--beta", "3/2", "--max-len", "6")
        assert done.returncode == 0 and done.stderr == warning * 2  # by get, then by put
        expected = [str(c) for c in count_free(20, Threshold(3, 2), 6).counts]
        assert json.loads(done.stdout)["counts"] == expected
        assert CountCache(path).get(20, Threshold(3, 2)).max_length == 6
        assert b"\xff" not in path.read_bytes()
        done = run_cached("certify", "--k", "20", "--n", "3", "--max-len", "5")
        assert (done.returncode, done.stderr) == (0, warning)
        assert json.loads(done.stdout)["status"] == "ok"
        done = run_cached("cache", "list")
        assert (done.returncode, done.stderr) == (0, warning)
        assert [e["max_length"] for e in json.loads(done.stdout)["entries"]] == [5]

    def test_cached_tail_max_zero_is_still_a_usage_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = count_tail_restricted(3, Threshold(2), 1, 4).to_record()
        record["tail_max"] = 0
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "powfree.cli", "count", "--k", "3", "--beta",
                               "2", "--tail-max", "0", "--max-len", "4", "--cache", str(path)],
                              env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == [
            f"skipping corrupt cache record {path}:1 (tail_max must be positive)",
            "powfree count: tail_max must be positive"]

    def test_counts_past_the_int_str_digit_limit(self, tmp_path, digits_unlimited):
        # C_4 of square-free words at k = 10**1500 has 6,000 digits, past CPython's 4,300: it is
        # printed exactly, written to the cache, and read back from it rather than skipped as
        # corrupt.  A fresh interpreter starts at the default limit.
        k = 10**1500
        expected = [1, k, k * (k - 1), k * (k - 1)**2, k * (k - 1)**3 - k * (k - 1)]
        path = tmp_path / "c.jsonl"
        argv = [sys.executable, "-m", "powfree.cli", "count", "--k", str(k), "--beta", "2",
                "--max-len", "4", "--cache", str(path), "--no-timestamp"]
        first = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                               timeout=60)
        assert (first.returncode, first.stderr) == (0, "")
        assert json.loads(first.stdout)["counts"] == [str(c) for c in expected]
        stored = path.read_bytes()
        again = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                               timeout=60)
        assert (again.returncode, again.stderr, again.stdout) == (0, "", first.stdout)
        assert path.read_bytes() == stored

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-str digit limit before Python 3.10.7")
    def test_main_restores_the_int_str_digit_limit(self):
        # main prints 6,000-digit counts with no limit, and the caller's limit is back when it
        # returns or raises.  A fresh interpreter, so no other test's limit is read.
        done = subprocess.run([sys.executable, "-c", _RESTORES_THE_DIGIT_LIMIT],
                              env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "ok\n")


_RESTORES_THE_DIGIT_LIMIT = """
import contextlib, io, json, sys
from powfree.cli import main


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert sys.get_int_max_str_digits() == 4321, argv
    return code, out.getvalue()


sys.set_int_max_str_digits(4321)
k = 10**1500
code, out = run("count", "--k", str(k), "--beta", "2", "--max-len", "4", "--no-timestamp")
assert run("check", "abc", "--beta", "2", "--no-timestamp")[0] == 0
assert run("check", "abc", "--beta", "2", "--cache", "x")[0] == 2
counts = json.loads(out)["counts"]
sys.set_int_max_str_digits(0)
assert code == 0 and counts == [str(c) for c in (1, k, k * (k - 1), k * (k - 1)**2,
                                                 k * (k - 1)**3 - k * (k - 1))]
print("ok")
"""


# The keys of the grid below, each counted by the canonical walk to WARM_LENGTH into a cache.
WARM_KEYS = [["--k", "3", "--beta", "2"], ["--k", "3", "--beta", "2", "--tail-max", "1"],
             ["--k", "2", "--beta", "3", "--plus"], ["--k", "4", "--beta", "3/2", "--tail-max", "2"],
             ["--k", "20", "--beta", "7/5", "--tail-max", "1"], ["--k", "20", "--beta", "3/2"],
             ["--k", "10", "--beta", "4/3", "--plus"], ["--k", "20", "--beta", "7/5"]]
WARM_LENGTH = 8

TRANSPARENCY_GRID = [
    # Valid counts: served from a warm cache, or longer than it and extending it.
    ["count", "--k", "3", "--beta", "2", "--max-len", "6"],
    ["count", "--k", "3", "--beta", "2", "--max-len", "10", "--out", "csv"],
    ["count", "--k", "2", "--beta", "3", "--plus", "--max-len", "8"],
    ["count", "--k", "4", "--beta", "3/2", "--tail-max", "2", "--max-len", "5"],
    ["count", "--k", "20", "--beta", "7/5", "--tail-max", "1", "--max-len", "0"],
    # The naive oracle recounts under its budget whatever the cache holds.
    ["count", "--k", "3", "--beta", "2", "--max-len", "6", "--engine", "naive"],
    ["count", "--k", "3", "--beta", "2", "--tail-max", "1", "--max-len", "5", "--engine",
     "naive", "--out", "csv"],
    ["count", "--k", "3", "--beta", "2", "--max-len", "6", "--engine", "naive", "--budget", "1"],
    ["count", "--k", "4", "--beta", "3/2", "--tail-max", "2", "--max-len", "5", "--engine",
     "naive", "--budget", "1"],
    # Requests the count refuses, whatever the cache holds.
    ["count", "--k", "3", "--beta", "2", "--max-len", "-1"],
    ["count", "--k", "3", "--beta", "2", "--max-len", "-1", "--engine", "naive"],
    ["count", "--k", "0", "--beta", "2", "--max-len", "4"],
    ["count", "--k", "3", "--beta", "2", "--tail-max", "0", "--max-len", "4"],
    ["count", "--k", "3", "--beta", "2", "--tail-max", "0", "--max-len", "4", "--engine", "naive"],
    ["certify", "--k", "20", "--n", "3", "--max-len", "6"],
    ["certify", "--k", "20", "--n", "3", "--max-len", "10", "--out", "csv"],
    ["certify", "--k", "10", "--n", "4", "--plus", "--max-len", "7"],
    ["certify", "--k", "20", "--beta", "7/5", "--max-len", "5"],
    ["certify", "--k", "3", "--n", "2", "--max-len", "6"],  # no witness
    ["certify", "--k", "20", "--n", "3", "--max-len", "-1"],
    ["certify", "--k", "20", "--n", "3", "--max-len", "1"],
    ["certify", "--k", "0", "--n", "3", "--max-len", "6"],
]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """The bytes of a cache that canonical counts of WARM_KEYS wrote."""
    path = tmp_path_factory.mktemp("warm") / "c.jsonl"
    for key in WARM_KEYS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["count", *key, "--max-len", str(WARM_LENGTH), "--cache", str(path)]) == 0
    return path.read_bytes()


class TestCacheTransparency:
    """The cache memoizes the canonical walk: it changes no command's answer."""

    @pytest.mark.parametrize("argv", TRANSPARENCY_GRID, ids=" ".join)
    def test_no_cache_an_empty_and_a_warm_cache_answer_alike(self, capsys, monkeypatch,
                                                             tmp_path, warm_cache, argv):
        monkeypatch.delenv("POWFREE_CACHE", raising=False)
        answers = []
        for name, data in (("none", None), ("empty", b""), ("warm", warm_cache)):
            cache = []
            if data is not None:
                path = tmp_path / f"{name}.jsonl"
                path.write_bytes(data)
                cache = ["--cache", str(path)]
            code = main([*argv, *cache, "--no-timestamp"])
            answers.append((name, code, *capsys.readouterr()))
            if data is not None and "naive" in argv:
                assert path.read_bytes() == data, name  # the oracle stores nothing
        assert [answer[1:] for answer in answers] == [answers[0][1:]] * 3, answers

    def test_a_record_of_the_naive_engine_is_served_as_the_walks(self, capsys, monkeypatch,
                                                                 tmp_path):
        # Earlier releases stored the naive engine's counts too: the walk's counts, so a served
        # record reads canonical, as the count without a cache does.
        monkeypatch.delenv("POWFREE_CACHE", raising=False)
        path = tmp_path / "c.jsonl"
        CountCache(path).put(count_free(3, Threshold(2), 6, "naive"))
        assert '"method": "naive"' in path.read_text(encoding="utf-8")
        argv = ["count", "--k", "3", "--beta", "2", "--max-len", "5", "--no-timestamp"]
        assert run(capsys, *argv) == run(capsys, *argv, "--cache", str(path))
        assert json.loads(run(capsys, *argv)[1])["method"] == "canonical"


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

    @pytest.mark.parametrize("argv", ["--k 3 --n 3", "--k 1 --n 3", "--k 2 --n 3 --plus"])
    def test_no_witness_at_k_not_above_n(self, capsys, argv):
        # No witness exists at k <= n (k < n with --plus): exit 1, as at k = 4 and 5 for n = 3.
        code, out = run(capsys, "certify", *argv.split(), "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "no-witness"
        assert doc["detail"].startswith("no witness: the condition admits no x > 1 at k=")

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

    def test_no_witness_at_k_not_above_n_csv(self, capsys):
        code, out = run(capsys, "certify", "--k", "3", "--n", "3", "--out", "csv")
        assert code == 1
        assert out.splitlines() == ["k,n,plus,status", "3,3,false,no-witness"]

    def test_any_alphabet_size(self, capsys):
        # A discriminant far beyond a float's range: the witness is found in integers.
        k = 10**200
        code, out = run(capsys, "certify", "--k", str(k), "--n", "3", "--max-len", "8",
                        "--no-timestamp")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "ok" and doc["k"] == k
        assert doc["series_digest"] == count_free(k, Threshold.dejean(3), 8).digest()

    def test_a_margin_past_the_int_str_digit_limit(self, digits_unlimited):
        # At 400, S(x) sums powers x**-399 of a 41-bit witness: the margin's terms run past
        # CPython's 4,300 digits, and a fresh interpreter starts at that limit.
        done = subprocess.run([sys.executable, "-m", "powfree.cli", "certify", "--k", "3",
                               "--beta", "400", "--max-len", "3", "--no-timestamp"],
                              env=subprocess_env(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert doc["status"] == "ok" and len(doc["condition_margin_num"]) > 4300
        cert = certify_series(count_free(3, Threshold(400), 3))
        assert (doc["condition_margin_num"], doc["condition_margin_den"]) == \
            (str(cert.condition_margin.numerator), str(cert.condition_margin.denominator))

    def test_no_witness_is_decided_before_any_count(self, capsys, monkeypatch, tmp_path):
        # Counting ternary square-free words to 200 letters would not finish; nothing is counted
        # or stored.
        def no_count(*args, **kwargs):
            raise AssertionError("counted although no witness exists")

        monkeypatch.setattr("powfree.counting.count_free", no_count)
        cache = tmp_path / "c.jsonl"
        code, out = run(capsys, "certify", "--k", "3", "--n", "2", "--max-len", "200",
                        "--cache", str(cache), "--no-timestamp")
        assert code == 1 and json.loads(out)["status"] == "no-witness"
        assert not cache.exists()

    @pytest.mark.parametrize("given", [["--n", "3"], ["--beta", "7/5"]], ids=["n", "beta"])
    def test_one_witness_search_per_certificate(self, capsys, monkeypatch, tmp_path, given):
        t = Threshold.dejean(3) if given[0] == "--n" else Threshold(7, 5)
        expected = certify_series(count_free(12, t, 6))
        searches = []

        def counted(*args):
            searches.append(args)
            return search(*args)

        search = bounds.rational_witness
        monkeypatch.setattr(bounds, "rational_witness", counted)
        argv = ["certify", "--k", "12", *given, "--max-len", "6", "--no-timestamp"]
        cache = ["--cache", str(tmp_path / "c.jsonl")]
        for extra in ([], cache, cache):  # no cache, a miss that stores, a hit
            code, out = run(capsys, *argv, *extra)
            doc = json.loads(out)
            assert (code, doc["status"], doc["series_digest"]) == \
                (0, "ok", expected.series_digest)
            assert (doc["x_witness_num"], doc["x_witness_den"]) == \
                (str(expected.x_witness.numerator), str(expected.x_witness.denominator))
            assert searches == [(12, t, 40)]
            searches.clear()

    @pytest.mark.parametrize("plus", [[], ["--plus"]], ids=["", "plus"])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_beta_of_the_form_n_over_n_minus_1_is_the_n_certificate(self, capsys, n, plus):
        beta = str(Threshold.dejean(n))
        argv = ["certify", "--k", "12", "--max-len", "6", *plus, "--no-timestamp"]
        _, by_n = run(capsys, *argv, "--n", str(n))
        code, by_beta = run(capsys, *argv, "--beta", beta)
        assert code == 0 and json.loads(by_beta)["status"] == "ok"
        by_n = [("beta", beta) if key == "n" else (key, value)
                for key, value in json.loads(by_n).items()]
        assert list(json.loads(by_beta).items()) == by_n
        _, by_n = run(capsys, *argv, "--n", str(n), "--out", "csv")
        _, by_beta = run(capsys, *argv, "--beta", beta, "--out", "csv")
        (head_n, row_n), (head_beta, row_beta) = by_n.splitlines(), by_beta.splitlines()
        assert head_beta == head_n.replace("k,n,", "k,beta,", 1)
        assert row_beta == row_n.replace(f"12,{n},", f"12,{beta},", 1)

    def test_beta_beyond_dejean(self, capsys):
        code, out = run(capsys, "certify", "--k", "20", "--beta", "7/5", "--no-timestamp")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "ok" and doc["beta"] == "7/5" and "n" not in doc
        assert int(doc["x_witness_num"]) / int(doc["x_witness_den"]) == pytest.approx(17.82485)
        assert doc["series_digest"] == count_free(20, Threshold(7, 5), 10).digest()

    def test_no_witness_at_beta_is_decided_before_any_count(self, capsys, monkeypatch, tmp_path):
        def no_count(*args, **kwargs):
            raise AssertionError("counted although no witness exists")

        monkeypatch.setattr("powfree.counting.count_free", no_count)
        cache = tmp_path / "c.jsonl"
        code, out = run(capsys, "certify", "--k", "6", "--beta", "7/5", "--max-len", "200",
                        "--cache", str(cache), "--no-timestamp")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "no-witness" and not cache.exists()
        assert doc["detail"] == "no witness: the condition admits no x > 1 at k=6, threshold 7/5"

    @pytest.mark.parametrize("given", [["--n", "3", "--beta", "3/2"], []], ids=["both", "neither"])
    def test_n_or_beta_exactly_once(self, capsys, given):
        with pytest.raises(SystemExit) as info:
            main(["certify", "--k", "20", *given, "--max-len", "4"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--n" in captured.err and "--beta" in captured.err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr("powfree.bounds.certify_series", broken)
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

    @pytest.mark.parametrize("length", ["-1"])
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

    @pytest.mark.parametrize("plus", [[], ["--plus"]], ids=["", "plus"])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_beta_of_the_form_n_over_n_minus_1_is_the_n_audit(self, capsys, n, plus):
        beta = str(Threshold.dejean(n))
        for out in ("json", "csv"):
            argv = ["audit", "--k", "4", "--len", "6", *plus, "--out", out, "--no-timestamp"]
            _, by_n = run(capsys, *argv, "--n", str(n))
            code, by_beta = run(capsys, *argv, "--beta", beta)
            assert code == 0
            if out == "json":
                by_n = [("beta", beta) if key == "n" else (key, value)
                        for key, value in json.loads(by_n).items()]
                by_beta = list(json.loads(by_beta).items())
            assert by_beta == by_n

    def test_beta_names_the_threshold_as_check_does(self, capsys):
        code, out = run(capsys, "audit", "--k", "4", "--beta", "7/5", "--plus", "--len", "6",
                        "--no-timestamp")
        doc = json.loads(out)
        assert code == 0 and doc["beta"] == "7/5" and doc["plus"] is True and "n" not in doc
        assert '"beta": "7/5",\n  "plus": true,' in out

    @pytest.mark.parametrize("given", [["--n", "3", "--beta", "3/2"], []], ids=["both", "neither"])
    def test_n_or_beta_exactly_once(self, capsys, given):
        with pytest.raises(SystemExit) as info:
            main(["audit", "--k", "4", *given, "--len", "6"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--n" in captured.err and "--beta" in captured.err

    def test_budget_exceeded_exit_code(self, capsys):
        code, out = run(capsys, "audit", "--k", "20", "--n", "3", "--len", "15")
        assert code == 3 and out == ""

    def test_lemma_violation_exit_code(self, capsys, monkeypatch):
        from test_analyze import short_last_count

        monkeypatch.setattr("powfree.analyze.count_free", short_last_count)
        assert main(["audit", "--k", "4", "--n", "3", "--len", "6"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("powfree audit: lemma violation: extension balance failed")


class TestReport:
    def test_csv_columns(self, capsys):
        code, out = run(capsys, "report", "--n", "3", "--k", "20,30", "--max-len", "4",
                        "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS) == (
            "k,n,root,root_plus,target,target_plus,witness,witness_plus,big_jump,"
            "small_variation,resid_times_k2,resid_plus_times_k2,alpha_ratio,alpha_prime_ratio")
        assert len(lines) == 3

    def test_no_witness_at_any_threshold_size(self, capsys):
        code, out = run(capsys, "report", "--n", str(10**200), "--k", "5", "--out", "csv")
        assert code == 0
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert [cells[c] for c in ("root", "root_plus", "witness", "witness_plus")] == [""] * 4

    def test_float_columns_stop_where_the_discriminant_leaves_the_floats(self, capsys):
        # At k = 10**154 the discriminant still fits in a float; at twice that it does not, and
        # the report is refused as a usage error rather than ending in a traceback.
        code, out = run(capsys, "report", "--n", "3", "--k", str(10**154), "--max-len", "3",
                        "--out", "csv")
        assert code == 0 and out.splitlines()[1].split(",")[2] == "1e+154"
        code = main(["report", "--n", "3", "--k", str(2 * 10**154), "--max-len", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("powfree report: the float root needs k below about")
        assert len(captured.err.splitlines()) == 1

    def test_a_target_beyond_the_floats_is_a_usage_error(self, capsys):
        # k + c_0 + c_1/k is about -n: at n = 10**400 it leaves the floats, as the root does
        # past k = 1.3e154, and the report exits 2 rather than ending in a traceback.
        code = main(["report", "--n", str(10**400), "--k", "5", "--max-len", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("powfree report: the float target needs n below about")
        assert len(captured.err.splitlines()) == 1

    def test_json_nested_by_n_then_k(self, capsys):
        code, out = run(capsys, "report", "--n", "2..3", "--k", "20", "--max-len", "4",
                        "--no-timestamp")
        doc = json.loads(out)
        assert doc["columns"] == list(REPORT_COLUMNS)
        assert set(doc["rows_by_n_then_k"]) == {"2", "3"}
        entry = doc["rows_by_n_then_k"]["3"]["20"]
        assert entry["target"] == pytest.approx(17.9)
        num, den = entry["witness"].split("/")
        assert abs(int(num) / int(den) - 17.8815273) < 1e-4

    def test_empty_range_is_named_in_the_error(self, capsys):
        code = main(["report", "--n", "2", "--k", "3..1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "empty range '3..1'" in err and "cannot parse" not in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv,rule", [
        ("certify --k 20 --n 1", "need n >= 2, got 1"),
        ("audit --k 20 --n 1 --len 3", "need n >= 2, got 1"),
        ("report --n 1..3 --k 20", "need n >= 2, got 1"),
        ("certify --k 1 --n 1", "need n >= 2, got 1"),
        ("count --k 0 --beta 2 --max-len 3", "alphabet size must be positive"),
        ("audit --k 0 --n 3 --len 3", "alphabet size must be positive"),
        ("report --n 3 --k 0", "alphabet size must be positive"),
        ("count --k 3 --beta 2 --max-len -1", "max_length must be nonnegative"),
        ("count --k 3 --beta 2 --max-len 3 --tail-max 0", "tail_max must be positive"),
        ("report --n 3 --k 20 --tail-max 0", "tail_max must be positive"),
        ("audit --k 4 --n 3 --len -1", "audit prefix length i must be at least 0"),
        ("audit --k 4 --beta 1 --len 3", "threshold must exceed 1, got 1/1"),
        ("certify --k 3 --n 2 --max-len 1", "series too short to certify"),
        ("certify --k 3 --n 2 --max-len -1", "max_length must be nonnegative"),
        ("audit --k 3 --n 2 --len -2", "audit prefix length i must be at least 0"),
        ("check 0,1 --beta 2", "letter indices must be positive"),
        pytest.param(f"check 1,{'9' * 5000} --beta 2", "letter index has too many digits",
                     id="check 1,<5000 nines> --beta 2-letter index has too many digits"),
        ("check a --beta 1", "threshold must exceed 1, got 1/1"),
        ("check abc! --beta 2", "word must be ASCII letters or comma-separated positive integers"),
        ("report --n 3 --k x", "cannot parse integer value 'x'"),
        ("report --n 4..2 --k 20", "empty range '4..2'"),
        ("count --k 3 --beta 2 --max-len 3 --workers abc", "invalid int value: 'abc'"),
        ("count --k 3 --beta 2 --max-len 3 --workers 0", "workers must be at least 1"),
        ("report --n 3 --k 20 --workers -1", "workers must be at least 1"),
    ])
    def test_the_owner_of_the_rule_names_it(self, capsys, argv, rule):
        argv = argv.split()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal, after its usage lines
            code = exc.code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        if argv[-2] == "--workers":
            assert lines[0].startswith("usage: ")
            lines = lines[-1:]
        assert (code, captured.out) == (2, "")
        assert len(lines) == 1
        assert lines[0].startswith(f"powfree {argv[0]}: ") and rule in lines[0]


def _option_strings(parser):
    """{command: its option strings in the order --help lists them}."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [o for a in p._actions for o in a.option_strings]
            for name, p in sub.choices.items()}


class TestSharedOptions:
    """Each command accepts --out and --no-timestamp, and of --cache, --workers and --budget
    only those it reads."""

    def test_each_command_has_the_options_it_reads(self):
        assert _option_strings(cli.build_parser()) == {
            "check": ["-h", "--help", "--out", "--no-timestamp", "--beta", "--plus"],
            "count": ["-h", "--help", "--out", "--cache", "--workers", "--budget",
                      "--no-timestamp", "--k", "--beta", "--plus", "--max-len", "--engine",
                      "--tail-max"],
            "certify": ["-h", "--help", "--out", "--cache", "--workers", "--no-timestamp",
                        "--k", "--n", "--beta", "--plus", "--max-len"],
            "audit": ["-h", "--help", "--out", "--budget", "--no-timestamp", "--k", "--n",
                      "--beta", "--plus", "--len"],
            "report": ["-h", "--help", "--out", "--workers", "--no-timestamp", "--n", "--k",
                       "--max-len", "--tail-max"],
            "cache": ["-h", "--help", "--out", "--cache", "--no-timestamp"],
        }

    @pytest.mark.parametrize("argv,pair", [
        ("check abc --beta 2", "--cache x"),
        ("check abc --beta 2", "--workers 2"),
        ("check abc --beta 2", "--budget 10"),
        ("audit --k 3 --n 3 --len 2", "--cache x"),
        ("audit --k 3 --n 3 --len 2", "--workers 2"),
        ("report --n 3 --k 20", "--cache x"),
        ("report --n 3 --k 20", "--budget 10"),
        ("cache list", "--workers 2"),
        ("cache list", "--budget 10"),
        ("certify --k 20 --n 3", "--budget 10"),
    ])
    def test_an_option_the_command_does_not_read_is_refused(self, capsys, argv, pair):
        with pytest.raises(SystemExit) as exc:
            main([*argv.split(), *pair.split()])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.splitlines()[-1] == f"powfree: error: unrecognized arguments: {pair}"


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


    @pytest.mark.parametrize("seconds,us", [
        (1_700_000_000, 0),          # no fraction, as datetime.isoformat writes 0 us
        (1_700_000_000, 1),
        (1_700_000_000, 123_456),
        (1_704_067_199, 999_999),    # the last microsecond of 2023
        (1_704_067_200, 0),          # the first of 2024
        (0, 0),
    ])
    def test_generated_at_is_the_isoformat_of_the_clock(self, capsys, monkeypatch, seconds, us):
        from datetime import datetime, timezone

        # Nanoseconds below the microsecond are floored, as datetime.now floors them.
        monkeypatch.setattr(_output.time, "time_ns", lambda: (seconds * 10**6 + us) * 1000 + 999)
        _, out = run(capsys, "check", "abc", "--beta", "2")
        expected = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=us)
        assert json.loads(out)["generated_at"] == expected.isoformat()


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
        assert list(doc["entries"][0]) == ["k", "beta", "plus", "tail_max", "max_length"]
        _, out = run(capsys, "cache", "clear", "--cache", str(path), "--no-timestamp")
        assert list(json.loads(out)) == ["command", "action", "path"]


def _write_listed_cache(path, records):
    """A cache file of records keys, k = 1..records, written as JSON lines without put."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(1, records + 1):
            series = CountSeries(k, Threshold(3, 2, k % 2 == 0), (1, k, k * k), "canonical",
                                 None if k % 3 else 2)
            fh.write(json.dumps(series.to_record()) + "\n")


class TestJsonEmitter:
    """_emit writes the bytes of print(json.dumps(doc, indent=2, default=_frac_str))."""

    @pytest.mark.parametrize("argv", [
        ["check", "hotshots", "--beta", "2"],
        ["check", "abcacb", "--beta", "7/4", "--plus"],
        ["count", "--k", "3", "--beta", "2", "--max-len", "9", "--tail-max", "2"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "8"],
        ["certify", "--k", "5", "--n", "3", "--max-len", "8"],  # no witness
        ["audit", "--k", "4", "--n", "3", "--len", "6"],
        ["report", "--n", "2..3", "--k", "5,20", "--max-len", "5"],  # Fraction cells
        ["cache", "list", "--cache", "{cache}"],
        ["cache", "clear", "--cache", "{cache}"],
    ], ids=["check-power", "check-free", "count", "certify", "certify-no-witness", "audit",
            "report", "cache-list", "cache-clear"])
    def test_stdout_is_the_json_dump_of_the_doc(self, capsys, monkeypatch, tmp_path, argv):
        cache = tmp_path / "c.jsonl"
        _write_listed_cache(cache, 30)
        docs = []
        emit = cli._emit

        def recorded(args, doc, rows, columns):
            # cache list hands over its rows as an iterator that doc holds too: keep a list.
            kept = list(rows)
            doc = {key: kept if value is rows else value for key, value in doc.items()}
            docs.append(doc)
            emit(args, doc, kept, columns)

        monkeypatch.setattr(cli, "_emit", recorded)
        code, out = run(capsys, *[a.format(cache=cache) for a in argv], "--no-timestamp")
        assert code in (0, 1) and len(docs) == 1
        assert out == json.dumps(docs[0], indent=2, default=_frac_str) + "\n"

    def test_a_long_document_is_written_in_few_batches(self, monkeypatch, tmp_path):
        # Under PYTHONUNBUFFERED every write is a system call: one per JSON chunk
        # would be hundreds of thousands for this list.
        cache = tmp_path / "c.jsonl"
        _write_listed_cache(cache, 2400)

        class CountingStdout:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["cache", "list", "--cache", str(cache), "--no-timestamp"]) == 0
        text = "".join(stdout.parts)
        assert len(json.loads(text)["entries"]) == 2400
        assert len(stdout.parts) <= -(-len(text.encode()) // (32 << 10)) + 1


def _line(series, **changes):
    return (json.dumps({**series.to_record(), **changes}) + "\n").encode()


def _edge_cache(name):
    """(file bytes or None for no file, the entries cache list shows) of an edge cache."""
    t = Threshold(2)
    one = _line(count_free(3, t, 5))
    shown = [(3, "2", False, None, 5)]
    bad = count_free(5, t, 5).to_record()
    bad["counts"] = ["1", "-3"]
    if name == "missing":
        return None, []
    if name == "empty":
        return b"", []
    if name == "one-key":
        return one, shown
    if name == "two-lengths":
        data = _line(count_free(3, t, 4)) + _line(count_free(3, t, 7)) + _line(count_free(3, t, 6))
        return data, [(3, "2", False, None, 7)]
    if name == "naive":  # records of the naive engine, which older releases stored
        data = (_line(count_free(3, Threshold(5, 2), 4, "naive")) + one
                + _line(count_free(3, t, 5, "naive")) + _line(count_free(2, t, 5, "naive")))
        return data, [(2, "2", False, None, 5), (3, "2", False, None, 5),
                      (3, "5/2", False, None, 4)]
    if name == "tail-max":
        data = b"".join(_line(count_tail_restricted(4, Threshold(7, 5, plus), tail, 5))
                        for plus in (True, False) for tail in (3, 1))
        data += _line(count_free(4, Threshold(7, 5), 5))
        return data, [(4, "7/5", False, tail, 5) for tail in (None, 1, 3)] + [
            (4, "7/5", True, tail, 5) for tail in (1, 3)]
    if name == "other-terms":  # a threshold not in lowest terms is corrupt, as get never serves it
        data = (_line(count_free(3, t, 8), num=4, den=2) + _line(count_free(3, t, 6))
                + _line(count_free(2, t, 5), num=6, den=3))
        return data, [(3, "2", False, None, 6)]
    if name == "corrupt":
        data = (one + b"{not json\n" + json.dumps(bad).encode() + b"\n" + b'{"k": 2, "num": 2}\n'
                + _line(count_free(4, t, 5), k=4.0) + _line(count_free(2, t, 4))[:-20] + b"\n\n"
                + b"[" * 100_000 + b"]" * 100_000 + b"\n"  # too deep for json.loads
                + _line(count_free(6, t, 3))[:-1])
        return data, shown + [(6, "2", False, None, 3)]
    if name == "not-utf8":
        return b"\xff\xfe bad\n" + one + _line(count_free(4, t, 5))[:-5] + b"\xe9\"]}\n", shown
    assert name == "many-keys"  # more rows than one call of the emitter's encoder takes
    keys = [(k, plus) for k in range(2, 2 + 2 * _output._EMIT_ROWS) for plus in (False, True)]
    data = b"".join(_line(CountSeries(k, Threshold(3, 2, plus), (1, k), "canonical"))
                    for k, plus in reversed(keys))
    return data, [(k, "3/2", plus, None, 1) for k, plus in keys]


EDGE_CACHES = ("missing", "empty", "one-key", "two-lengths", "naive", "tail-max", "other-terms",
               "corrupt", "not-utf8", "many-keys")


class TestCacheListBytes:
    """cache list writes its rows as it makes them, in the bytes of a materialised document."""

    COLUMNS = ("k", "beta", "plus", "tail_max", "max_length")

    @pytest.fixture(params=EDGE_CACHES)
    def edge(self, request, tmp_path):
        data, shown = _edge_cache(request.param)
        path = tmp_path / "c.jsonl"
        if data is not None:
            path.write_bytes(data)
        return path, [dict(zip(self.COLUMNS, entry)) for entry in shown]

    def test_json_is_the_dump_of_the_listed_document(self, capsys, edge):
        path, rows = edge
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--no-timestamp")
        doc = {"command": "cache", "action": "list", "path": str(path), "entries": rows}
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n"
        code, out = run(capsys, "cache", "list", "--cache", str(path))
        doc["generated_at"] = json.loads(out)["generated_at"]
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n"

    def test_csv_is_the_written_table(self, capsys, edge):
        import csv
        import io

        path, rows = edge
        code, out = run(capsys, "cache", "list", "--cache", str(path), "--out", "csv")
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for row in rows:
            writer.writerow(["" if v is None else str(v).lower() if isinstance(v, bool) else v
                             for v in row.values()])
        assert code == 0 and out == text.getvalue()


# The two ways to start entry(): python -m powfree.cli, and the console script's call.
LAUNCHES = {"module": ["-m", "powfree.cli"],
            "script": ["-c", "from powfree.cli import entry; entry()"]}


def buffered_env():
    """subprocess_env() without PYTHONUNBUFFERED, which would hide a missing flush."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def launched(*args):
    """A fresh interpreter run with args in buffered_env(), its output captured as text."""
    return subprocess.run([sys.executable, *args], env=buffered_env(), capture_output=True,
                          text=True, timeout=60)


class TestEntryPoint:
    @pytest.mark.parametrize("word,code,free", [("hotshots", 1, False), ("minimize", 0, True)])
    def test_exit_code_of_the_console_script(self, word, code, free):
        # entry() ends its process, so it runs in a fresh interpreter.
        for launch in LAUNCHES.values():
            done = launched(*launch, "check", word, "--beta", "2", "--no-timestamp")
            assert done.returncode == code
            assert json.loads(done.stdout)["free"] is free

    @staticmethod
    def _loaded_after_import(names, *flags):
        """Which of names a fresh interpreter, run with flags, holds after import powfree.cli."""
        probe = f"import sys, powfree.cli; print(*sorted(set({names!r}) & set(sys.modules)))"
        out = subprocess.run([sys.executable, *flags, "-c", probe], env=subprocess_env(),
                             capture_output=True, text=True, check=True, timeout=60).stdout
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

    @staticmethod
    def _loaded_after_command(names, *argv, timestamp=False):
        """Which of names a fresh interpreter, run with -S, holds after powfree argv."""
        argv = [*argv] if timestamp else [*argv, "--no-timestamp"]
        probe = (f"import contextlib, io, sys, powfree.cli\n"
                 f"with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = powfree.cli.main({argv!r})\n"
                 f"print(code, *sorted(set({names!r}) & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", probe], env=subprocess_env(),
                             capture_output=True, text=True, check=True, timeout=120).stdout
        code, *loaded = out.split()
        assert code == "0"
        return loaded

    def test_import_leaves_out_openssl_and_csv(self):
        # hashlib loads OpenSSL's libcrypto (+3.6 MB RSS); -S as for tempfile.
        assert self._loaded_after_import(("_hashlib", "csv"), "-S") == []

    @pytest.mark.parametrize("argv", [
        ["check", "abcacb", "--beta", "2"],
        ["audit", "--k", "4", "--n", "3", "--len", "8"],
        ["count", "--k", "20", "--beta", "3/2", "--max-len", "12"],  # a kernel walk
        ["cache", "list", "--cache", "{cache}"],
    ], ids=["check", "audit", "count", "cache-list"])
    def test_only_a_printed_digest_loads_openssl(self, tmp_path, argv):
        cache = tmp_path / "c.jsonl"
        CountCache(cache).put(count_free(3, Threshold(2), 4))
        argv = [a.format(cache=cache) for a in argv]
        assert self._loaded_after_command(("_hashlib", "csv"), *argv) == []

    def test_certify_digest_loads_no_openssl(self):
        # series_digest is taken with CPython's own SHA-256 module, not hashlib's OpenSSL.
        argv = ["certify", "--k", "20", "--n", "3", "--max-len", "12"]
        assert self._loaded_after_command(("_hashlib", "csv"), *argv) == []
        argv += ["--out", "csv"]
        assert self._loaded_after_command(("_hashlib", "csv"), *argv) == ["csv"]

    def test_import_loads_every_traced_module(self):
        # perfbench/launcher.py looks each module up in sys.modules to wrap its calls.
        names = tuple(f"powfree.{m}"
                      for m in ("analyze", "bounds", "cache", "cli", "counting", "words"))
        assert self._loaded_after_import(names) == sorted(names)

    @pytest.mark.parametrize("argv", [
        ["check", "abcacb", "--beta", "2"],
        ["count", "--k", "3", "--beta", "2", "--max-len", "6"],
        ["certify", "--k", "20", "--n", "3", "--max-len", "12"],
        ["audit", "--k", "4", "--n", "3", "--len", "8"],
        ["report", "--n", "2..3", "--k", "20", "--max-len", "5"],
        ["cache", "list", "--cache", "{cache}"],
        ["cache", "clear", "--cache", "{cache}"],
    ], ids=["check", "count", "certify", "audit", "report", "cache-list", "cache-clear"])
    def test_no_command_loads_datetime(self, tmp_path, argv):
        # generated_at is written from time.time_ns(); datetime costs ~0.4 MB of every start-up.
        cache = tmp_path / "c.jsonl"
        CountCache(cache).put(count_free(3, Threshold(2), 4))
        argv = [a.format(cache=cache) for a in argv]
        assert self._loaded_after_command(("datetime", "_datetime"), *argv, timestamp=True) == []

    @pytest.mark.parametrize("argv,walks", [
        (["check", "abcacb", "--beta", "2"], False),
        (["audit", "--k", "4", "--n", "3", "--len", "8"], True),
        (["report", "--n", "2..4", "--k", "20"], True),
        (["certify", "--k", "20", "--n", "3", "--max-len", "14", "--cache", "{cache}"], False),
    ], ids=["check", "audit", "report", "certify-cache-hit"])
    def test_small_walks_leave_out_the_kernel(self, tmp_path, argv, walks):
        # No command imports ctypes.  check and a cache hit do not walk, so they leave out the
        # kernel; the audit's and report's walks, a few hundred window tests each, load it
        # wherever it builds.
        cache = tmp_path / "c.jsonl"
        CountCache(cache).put(count_free(20, Threshold(3, 2), 14))
        argv = [a.format(cache=cache) for a in argv]
        expected = ["powfree._walk"] if walks and counting._kernel() is not None else []
        assert self._loaded_after_command(("ctypes", "powfree._walk"), *argv) == expected

    def test_a_large_walk_loads_the_kernel(self):
        # About 4 million window tests.  The kernel is an extension module, so the walk that
        # loads it imports no ctypes.
        if counting._kernel() is None:
            pytest.skip("no walk kernel builds here")
        argv = ["certify", "--k", "20", "--n", "3", "--max-len", "14"]
        loaded = self._loaded_after_command(("ctypes", "powfree._walk"), *argv)
        assert loaded == ["powfree._walk"]


class TestLazyLayers:
    """analyze, bounds, cache and counting run only in a command that calls them; each case
    runs in a fresh interpreter, without bytecode, as every benchmark run does."""

    @staticmethod
    def _probe(code):
        env = {**subprocess_env(), "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("POWFREE_CACHE", None)
        # -S: the site hooks of some installs (a certifi .pth) load modules of their own.
        return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout

    @pytest.mark.parametrize("argv,layers", [
        (["check", "abcab", "--beta", "2"], []),
        (["check", "abcabc", "--beta", "2"], []),
        (["count", "--k", "3", "--beta", "2", "--max-len", "6"], ["counting"]),
        (["count", "--k", "3", "--beta", "2", "--max-len", "6", "--cache", "{cache}"],
         ["cache", "counting"]),
        (["certify", "--k", "20", "--n", "3", "--max-len", "8"], ["bounds", "counting"]),
        (["audit", "--k", "4", "--n", "3", "--len", "8"], ["analyze", "counting"]),
        (["report", "--n", "3", "--k", "20", "--max-len", "4"],
         ["analyze", "bounds", "counting"]),
        (["cache", "list", "--cache", "{cache}"], ["cache", "counting"]),
    ], ids=["check-free", "check-power", "count", "count-cache", "certify", "audit", "report",
            "cache-list"])
    def test_a_command_runs_only_its_layers(self, tmp_path, argv, layers):
        # A lazy module that has not run holds only what LazyLoader put in it: no __all__.
        argv = [a.format(cache=tmp_path / "c.jsonl") for a in argv] + ["--no-timestamp"]
        probe = ("import contextlib, io, sys, powfree.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    powfree.cli.main({argv!r})\n"
                 "print(*[name for name in ('analyze', 'bounds', 'cache', 'counting')\n"
                 "        if '__all__' in object.__getattribute__(sys.modules['powfree.' + name],\n"
                 "                                                '__dict__')])\n"
                 "print(*sorted({'fractions', 'decimal'} & set(sys.modules)))")
        ran, standard = self._probe(probe).split("\n")[:2]
        assert ran.split() == layers
        if argv[0] in ("check", "count", "audit"):
            # A free word's check, a count and an audit print no rational.
            assert standard.split() == (["decimal", "fractions"] if "abcabc" in argv else [])

    def test_every_traced_call_resolves_after_the_import(self):
        # perfbench/launcher.py looks each (module, attribute) up right after import powfree.cli.
        launcher = Path(__file__).resolve().parents[1] / "perfbench"
        probe = (f"import sys; sys.path.insert(0, {str(launcher)!r})\n"
                 "from launcher import TRACED\n"
                 "import powfree.cli\n"
                 "for module, attr in TRACED:\n"
                 "    owner = sys.modules[module]\n"
                 "    for part in attr.split('.'):\n"
                 "        owner = getattr(owner, part)\n"
                 "    assert callable(owner), (module, attr)\n"
                 "print('resolved')")
        assert self._probe(probe) == "resolved\n"

    def test_the_parser_after_a_run_has_every_command(self):
        # main builds one command's arguments; a later build_parser() builds all six.
        probe = ("import contextlib, io, json, powfree.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(['check', 'abc', '--beta', '2', '--no-timestamp'])\n"
                 "sub = cli.build_parser()._subparsers._group_actions[0]\n"
                 "print(json.dumps({name: [o for a in p._actions for o in a.option_strings]\n"
                 "                  for name, p in sub.choices.items()}))")
        assert json.loads(self._probe(probe)) == _option_strings(cli.build_parser())


# The help of powfree and of each command, as argparse formats it 200 columns wide: the same
# bytes on Python 3.10-3.13, whether main builds every command's arguments or one command's.
HELP = {
    "": """\
usage: powfree [-h] {check,count,certify,audit,report,cache} ...

Exact toolkit for power-free words: detection, counting, growth-rate certificates.

positional arguments:
  {check,count,certify,audit,report,cache}
    check               test a word for forbidden powers
    count               count threshold-free words of each length
    certify             produce an exactly-checked growth lower-bound certificate
    audit               exhaustive per-period census of rejected extensions
    report              exploratory table of bounds, targets, and enumerations
    cache               inspect or clear the count cache

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: powfree check [-h] [--out {json,csv}] [--no-timestamp] --beta BETA [--plus] word

positional arguments:
  word              letters a..z, or comma-separated integers

options:
  -h, --help        show this help message and exit
  --out {json,csv}  output format (default json)
  --no-timestamp    omit the generated_at field for byte-reproducible output
  --beta BETA       exponent bound, 'p' or 'p/q'
  --plus            forbid only exponents strictly above beta
""",
    "count": """\
usage: powfree count [-h] [--out {json,csv}] [--cache PATH] [--workers WORKERS] [--budget BUDGET] [--no-timestamp] --k K --beta BETA [--plus] --max-len MAX_LEN [--engine {naive,canonical}]
                     [--tail-max TAIL_MAX]

options:
  -h, --help            show this help message and exit
  --out {json,csv}      output format (default json)
  --cache PATH          count cache file (default $POWFREE_CACHE if set)
  --workers WORKERS     parallel workers for long enumerations, at most one per core (default: available cores)
  --budget BUDGET       work budget: candidate words k**L for the naive engine, letters of the next pattern level for audit
  --no-timestamp        omit the generated_at field for byte-reproducible output
  --k K                 alphabet size
  --beta BETA           exponent bound, 'p' or 'p/q'
  --plus
  --max-len MAX_LEN     largest length to count
  --engine {naive,canonical}
  --tail-max TAIL_MAX   restrict to forbidden powers with tail at most this long
""",
    "certify": """\
usage: powfree certify [-h] [--out {json,csv}] [--cache PATH] [--workers WORKERS] [--no-timestamp] --k K (--n N | --beta BETA) [--plus] [--max-len MAX_LEN]

options:
  -h, --help         show this help message and exit
  --out {json,csv}   output format (default json)
  --cache PATH       count cache file (default $POWFREE_CACHE if set)
  --workers WORKERS  parallel workers for long enumerations, at most one per core (default: available cores)
  --no-timestamp     omit the generated_at field for byte-reproducible output
  --k K
  --n N              threshold is n/(n-1)
  --beta BETA        exponent bound, 'p' or 'p/q'
  --plus
  --max-len MAX_LEN  series length to verify against
""",
    "audit": """\
usage: powfree audit [-h] [--out {json,csv}] [--budget BUDGET] [--no-timestamp] --k K (--n N | --beta BETA) [--plus] --len LEN

options:
  -h, --help        show this help message and exit
  --out {json,csv}  output format (default json)
  --budget BUDGET   work budget: candidate words k**L for the naive engine, letters of the next pattern level for audit
  --no-timestamp    omit the generated_at field for byte-reproducible output
  --k K
  --n N             threshold is n/(n-1)
  --beta BETA       exponent bound, 'p' or 'p/q'
  --plus
  --len LEN         prefix length i; words of length i+1
""",
    "report": """\
usage: powfree report [-h] [--out {json,csv}] [--workers WORKERS] [--no-timestamp] --n N --k K [--max-len MAX_LEN] [--tail-max TAIL_MAX]

options:
  -h, --help           show this help message and exit
  --out {json,csv}     output format (default json)
  --workers WORKERS    parallel workers for long enumerations, at most one per core (default: available cores)
  --no-timestamp       omit the generated_at field for byte-reproducible output
  --n N                values, e.g. '2..4' or '2,3'
  --k K                values, e.g. '50,100,200'
  --max-len MAX_LEN
  --tail-max TAIL_MAX
""",
    "cache": """\
usage: powfree cache [-h] [--out {json,csv}] [--cache PATH] [--no-timestamp] [{list,clear}]

positional arguments:
  {list,clear}

options:
  -h, --help        show this help message and exit
  --out {json,csv}  output format (default json)
  --cache PATH      count cache file (default $POWFREE_CACHE if set)
  --no-timestamp    omit the generated_at field for byte-reproducible output
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", HELP, ids=[c or "powfree" for c in HELP])
    def test_help_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag] if command else [flag])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out, captured.err) == (0, HELP[command], "")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "-h"] if command else ["-h"])
        assert capsys.readouterr().out == HELP[command]


class TestExitPath:
    """entry() flushes, runs the exit handlers and ends with os._exit: nothing a user sees changes."""

    @pytest.mark.parametrize("out", ["json", "csv"])
    def test_a_long_listing_is_all_written(self, capsys, tmp_path, out):
        cache = tmp_path / "c.jsonl"
        _write_listed_cache(cache, 2400)
        argv = ["cache", "list", "--cache", str(cache), "--out", out, "--no-timestamp"]
        code, expected = run(capsys, *argv)
        assert code == 0 and len(expected) > 1 << 15  # many times stdout's 8 KiB buffer
        for launch in LAUNCHES.values():
            command = [sys.executable, *launch, *argv]
            with open(tmp_path / "out", "wb") as fh:
                done = subprocess.run(command, env=buffered_env(), stdout=fh, timeout=60)
            assert done.returncode == 0
            assert (tmp_path / "out").read_bytes() == expected.encode()
            piped = subprocess.run(command, env=buffered_env(), capture_output=True, timeout=60)
            assert piped.returncode == 0 and piped.stderr == b""
            assert piped.stdout == expected.encode()

    def test_exit_handlers_run_and_the_code_is_mains(self):
        # The handler writes to the buffered stdout after the document: the last flush keeps it.
        # The teardown, which would collect the module's objects, never runs.
        probe = ("import atexit; atexit.register(print, 'handler ran')\n"
                 "class Noisy:\n"
                 "    def __del__(self): print('torn down')\n"
                 "noisy = Noisy()\n"
                 "from powfree.cli import entry; entry()")
        done = launched("-c", probe, "check", "hotshots", "--beta", "2", "--no-timestamp")
        document, handler = done.stdout.rsplit("}\n", 1)
        assert done.returncode == 1 and handler == "handler ran\n"
        assert json.loads(document + "}")["free"] is False

    def test_a_running_thread_is_waited_for(self):
        # A thread still at work when main() returns: the exit goes through the interpreter's
        # shutdown, which joins it.
        probe = ("import threading, time\n"
                 "threading.Thread(target=lambda: (time.sleep(0.5), print('thread ran'))).start()\n"
                 "from powfree.cli import entry; entry()")
        done = launched("-c", probe, "check", "abc", "--beta", "2", "--no-timestamp")
        assert done.returncode == 0 and done.stdout.endswith("}\nthread ran\n")

    def test_a_bug_still_prints_its_traceback(self):
        probe = ("import powfree.cli as cli\n"
                 "cli.find_violation = lambda word, t: 1 / 0\n"
                 "cli.entry()")
        done = launched("-c", probe, "check", "abc", "--beta", "2")
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("Traceback")
        assert done.stderr.endswith("ZeroDivisionError: division by zero\n")

    @pytest.mark.parametrize("launch", LAUNCHES.values(), ids=LAUNCHES)
    def test_a_usage_error_still_exits_2(self, launch):
        done = launched(*launch, "check", "abc")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith(
            "powfree check: error: the following arguments are required: --beta\n")

    @pytest.mark.parametrize("argv,read", [
        (["cache", "list", "--cache", "{cache}"], 100),  # the emitter's write fails
        (["check", "hotshots", "--beta", "2"], 0),  # the final flush fails
    ], ids=["emitter", "flush"])
    def test_a_closed_pipe_exits_141_without_a_traceback(self, tmp_path, argv, read):
        cache = tmp_path / "c.jsonl"
        _write_listed_cache(cache, 2400)
        argv = [a.format(cache=cache) for a in argv]
        proc = subprocess.Popen([sys.executable, "-m", "powfree.cli", *argv],
                                env=buffered_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                        reason="no C compiler on PATH")
    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="no /proc list of child processes")
    @pytest.mark.parametrize("workers,group", [("1", True), ("2", True), ("2", False)],
                             ids=["in-process", "pool", "pool-parent-only"])
    def test_ctrl_c_exits_130_with_one_line(self, workers, group):
        # Interrupted by a terminal's Ctrl-C, which reaches the whole process group, or by a
        # SIGINT to the parent alone.
        code, out, err, _ = self._interrupted(workers, group, 1)
        assert (code, out, err) == (130, "", "powfree count: interrupted\n")

    @pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                        reason="no C compiler on PATH")
    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="no /proc list of child processes")
    @pytest.mark.parametrize("group", [True, False], ids=["pool", "pool-parent-only"])
    def test_ctrl_c_stops_a_pool_at_once(self, group):
        # The parent terminates its workers, so a pooled walk stops as an in-process one does:
        # one SIGINT ends it within 1.5 s (waiting for the running prefixes took 2-4 s), and a
        # second SIGINT 0.3 s after the first does not hang it.
        for signals in (1, 2):
            code, out, err, seconds = self._interrupted("2", group, signals)
            assert (code, out, err) == (130, "", "powfree count: interrupted\n"), signals
            assert signals == 2 or seconds < 1.5

    @pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                        reason="no C compiler on PATH")
    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="no /proc list of child processes")
    @pytest.mark.parametrize("group", [True, False], ids=["pool", "pool-parent-only"])
    def test_two_quick_ctrl_cs_exit_130_with_one_line(self, group):
        # entry() ignores every SIGINT after the first, so a second one at once does not land
        # in the pool's wait or its workers' termination, where it left workers running that
        # printed tracebacks, or ended the run with exit 1.
        for run in range(10):
            gap = (0, 0.0002)[run % 2]
            code, out, err, _ = self._interrupted("2", group, 2, gap)
            assert (code, out, err) == (130, "", "powfree count: interrupted\n"), (run, gap)

    @staticmethod
    def _interrupted(workers, group, signals, gap=0.3):
        """Exit code, stdout, stderr and seconds from the first SIGINT to the end of a walk of
        about 13 s in one process that gets signals SIGINTs, gap seconds apart, once it runs.

        Two cores are reported, so that --workers 2 starts the pool; the probe says when
        entry() is about to start.  The session must hold no process 10 s after the first
        SIGINT: every worker ended with the run.
        """
        probe = ("import os\n"
                 "os.cpu_count = lambda: 2\n"
                 "from powfree.cli import entry\n"
                 "print('ready', flush=True)\n"
                 "entry()")
        argv = ["count", "--k", "20", "--beta", "3/2", "--max-len", "18", "--workers", workers,
                "--no-timestamp"]
        proc = subprocess.Popen([sys.executable, "-c", probe, *argv], env=buffered_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            assert proc.stdout.readline() == "ready\n"
            children, pool = Path(f"/proc/{proc.pid}/task/{proc.pid}/children"), workers != "1"
            deadline = time.monotonic() + 30
            while pool and len(children.read_text().split()) < int(workers):
                assert time.monotonic() < deadline, "the pool did not start"
                time.sleep(0.05)
            time.sleep(0.5)
            start = time.monotonic()
            for i in range(signals):
                until = time.perf_counter() + (gap if i else 0)
                while time.perf_counter() < until:
                    pass  # a busy wait: sleep() may overshoot a gap of 0.2 ms many times over
                if group:
                    os.killpg(proc.pid, signal.SIGINT)
                else:
                    proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
            seconds = time.monotonic() - start
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return proc.returncode, out, err, seconds

    def test_the_pool_ends_with_the_run(self):
        # Two cores reported, whatever the host has, so that --workers 2 starts the pool. An
        # exit handler reports whether the pool was imported and its workers waited for.
        probe = ("import atexit, os, resource, sys\n"
                 "os.cpu_count = lambda: 2\n"
                 "def report():\n"
                 "    kids = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
                 "    pool = 'multiprocessing.pool' in sys.modules\n"
                 "    print('pool', pool and kids.ru_utime + kids.ru_stime > 0, file=sys.stderr)\n"
                 "atexit.register(report)\n"
                 "from powfree.cli import entry; entry()")
        argv = ["certify", "--k", "20", "--n", "3", "--max-len", "16", "--no-timestamp"]
        outs = {}
        for workers in ("1", "2"):
            proc = subprocess.Popen([sys.executable, "-c", probe, *argv, "--workers", workers],
                                    env=buffered_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, start_new_session=True)
            outs[workers], err = proc.communicate(timeout=120)
            assert proc.returncode == 0
            if workers == "2":
                assert err.endswith(b"pool True\n")
                # The session holds no process: every worker ended with the run.
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
        assert b'"status": "ok"' in outs["1"] and outs["1"] == outs["2"]
