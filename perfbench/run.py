"""powfree benchmark: drive the CLI as a user does and check every output.

    python3 perfbench/run.py --workload {deep,sweep,detect,all} --seed N --seconds S --trace {0,1}

One closed-loop client runs the workload's CLI invocations one at a time.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
the ops untraced and then again through the span launcher, and prints the
per-layer metrics.  Lines before the last describe the run; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads as W

LAUNCHER = W.HERE / "launcher.py"
SPAWNER = W.HERE / "spawner.py"
WORK_DIR = W.HERE / "_work"
SETUP_REPEATS = 8
DEADLINE_S = 170.0   # a run must end within 180 s
MIN_OPS_FOR_P90 = 100  # so that at least ten samples lie beyond p90

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
COMMANDS = ("certify", "count", "report", "audit", "check", "cache_list")
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.main.self_s": "s", "cli.main.calls": "count",
    "words.find_violation.s": "s", "words.find_violation.calls": "count",
    "words.letters_checked": "count",
    "counting.count_free.s": "s", "counting.count_free.calls": "count",
    "counting.count_tail_restricted.s": "s", "counting.count_tail_restricted.calls": "count",
    "counting.terms": "count", "counting.cpu_over_wall": "ratio",
    "cache.get.s": "s", "cache.get.calls": "count", "cache.put.s": "s",
    "cache.put.calls": "count", "cache.entries.s": "s", "cache.hit_ratio": "ratio",
    "cache.file_bytes": "bytes",
    "bounds.certify.s": "s", "bounds.certify.calls": "count",
    "bounds.rational_witness.s": "s", "bounds.rational_witness.calls": "count",
    "analyze.fj_audit.self_s": "s", "analyze.suffix_determination_check.s": "s",
    "analyze.conjecture_report.self_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{c}_s": "s" for c in COMMANDS},
    "op_p50_s": "s", "op_p90_s": "s",
}


@dataclass
class OpRun:
    op: W.Op
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_path: Path
    spans_path: Path | None


@dataclass
class Pass:
    runs: list[OpRun]
    wall_s: float
    not_run: int


def program_env(cache_path: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(W.ROOT / "src")
    env.pop("POWFREE_CACHE", None)
    if cache_path is not None:
        env["POWFREE_CACHE"] = str(cache_path)
    return env


def setup(plan: W.Plan, expected: W.Expected, directory: Path) -> dict:
    """Write the workload's files into a fresh directory and check the program starts."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    cache_path = None
    if plan.uses_cache:
        cache_path = directory / "cache.jsonl"
        cache_path.write_text(W.sweep_cache_text(plan.seed, expected))
    env = program_env(cache_path)
    probe = subprocess.run([sys.executable, "-c", "import powfree.cli as m; print(m.__file__)"],
                           env=env, cwd=directory, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or not probe.stdout.strip().startswith(str(W.ROOT / "src")):
        raise SystemExit(f"powfree does not start from {W.ROOT / 'src'}: {probe.stderr.strip()}")
    return env


class Spawner:
    """Client of spawner.py, which starts each op from a small process of its own."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-S", str(SPAWNER)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, directory: Path, out_path: Path, timeout: float):
        """Run one invocation to completion: (exit code, wall s, CPU s, peak RSS MB)."""
        request = {"argv": argv, "env": env, "cwd": str(directory), "out": str(out_path),
                   "err": str(out_path.with_suffix(".err")), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        r = json.loads(reply)
        return r["code"], r["wall_s"], r["cpu_s"], r["rss_mb"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def run_pass(plan: W.Plan, env: dict, directory: Path, traced: bool, deadline: float,
             between=None, between_after: tuple[int, ...] = ()) -> Pass:
    """Run the ops in order; after op i, call `between` once per i in between_after.

    Time spent in `between` is left out of the pass's wall time.
    """
    runs = []
    paused = 0.0
    spawner = Spawner()
    try:
        start = time.perf_counter()
        for i, op in enumerate(plan.ops):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            out_path = directory / f"op{i:03d}.out"
            spans_path = directory / f"op{i:03d}.spans" if traced else None
            prefix = [sys.executable, str(LAUNCHER), str(spans_path)] if traced \
                else [sys.executable, "-m", "powfree.cli"]
            code, op_wall, cpu, rss = spawner.run(prefix + op.argv, env, directory, out_path,
                                                  remaining)
            runs.append(OpRun(op, code, op_wall, cpu, rss, out_path, spans_path))
            for _ in range(between_after.count(i)):
                pause_start = time.perf_counter()
                between()
                paused += time.perf_counter() - pause_start
        wall = time.perf_counter() - start - paused
    finally:
        spawner.close()
    return Pass(runs, wall, len(plan.ops) - len(runs))


def problems_of(p: Pass, expected: W.Expected) -> list[str]:
    """One line per op whose exit code or output is wrong, or that never ran."""
    out = []
    for i, r in enumerate(p.runs):
        problem = W.check_output(r.op, r.code, r.out_path.read_text(errors="replace"), expected)
        if problem:
            out.append(f"op {i} ({' '.join(r.op.argv)[:80]}): {problem}")
    return out + [f"op {i}: not run before the deadline"
                  for i in range(len(p.runs), len(p.runs) + p.not_run)]


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": p.wall_s,
        "cpu_s": sum(r.cpu_s for r in p.runs),
        "peak_rss_mb": max((r.rss_mb for r in p.runs), default=0.0),
    }


def breakdown(p: Pass) -> dict[str, float]:
    """Per-command totals and, with enough ops, op latency percentiles."""
    out = {f"{c}_s": sum(r.wall_s for r in p.runs if r.op.command == c) for c in COMMANDS}
    walls = [r.wall_s for r in p.runs]
    enough = len(walls) >= MIN_OPS_FOR_P90
    out["op_p50_s"] = statistics.median(walls) if enough else 0.0
    out["op_p90_s"] = statistics.quantiles(walls, n=10)[8] if enough else 0.0
    return out


def per_layer(untraced: Pass, traced: Pass, cache_path: Path | None) -> dict[str, float]:
    processes = [tracing.read_spans(r.spans_path) for r in traced.runs]
    out = tracing.layer_metrics(processes)
    out["cache.file_bytes"] = cache_path.stat().st_size if cache_path and cache_path.exists() else 0
    out["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s - 1
    out.update(breakdown(untraced))
    return {name: out[name] for name in PER_LAYER_UNITS}


def plan_rounds(name: str, seconds: float, trace: bool) -> int:
    """A traced run splits its time between the untraced and the traced pass."""
    return W.rounds_for(name, seconds / 2 if trace else seconds)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: W.Expected, oracles) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    rounds = plan_rounds(name, seconds, trace)
    work = WORK_DIR / f"{name}-{os.getpid()}"
    try:
        # Set-ups are repeated through the untraced pass, so that their median
        # samples the machine over the whole run rather than one moment of it.
        setup_times = []

        def timed_setup() -> dict:
            start = time.perf_counter()
            directory = work / f"setup{len(setup_times)}"
            env = setup(W.build(name, seed, rounds), expected, directory)
            setup_times.append(time.perf_counter() - start)
            return env

        plan = W.build(name, seed, rounds)
        envs = [timed_setup() for _ in range(2 if trace else 1)]
        spread = SETUP_REPEATS - len(envs)
        after = tuple(max(0, (j + 1) * len(plan.ops) // (spread + 1) - 1) for j in range(spread))
        passes = [run_pass(plan, envs[0], work / "setup0", False, deadline, timed_setup, after)]
        if trace:
            passes.append(run_pass(plan, envs[1], work / "setup1", True, deadline))
        untraced = passes[0]

        op_problems = [line for p in passes for line in problems_of(p, expected)]
        problems = op_problems + (W.oracle_problems(plan, expected, oracles) if oracles else [])
        for problem in problems[:20]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        attempted = len(plan.ops) * len(passes)

        summary = end_to_end(untraced, statistics.median(setup_times))
        print(f"# {name}: {len(plan.ops)} ops in {plan.rounds} round(s), {len(passes)} pass(es)")
        for key, unit in END_TO_END:
            print(f"{name}.{key} {summary[key]:.6g} {unit}")
        print(f"{name}.fail_ratio {len(op_problems) / attempted:.6g} ratio "
              f"({len(op_problems)} of {attempted} ops)")
        for key, value in breakdown(untraced).items():
            if value and not trace:
                print(f"{name}.{key} {value:.6g} s" + (f" (n={len(untraced.runs)} ops)"
                                                     if key.startswith("op_") else ""))
        if trace:
            cache = work / "setup1" / "cache.jsonl" if plan.uses_cache else None
            metrics = per_layer(untraced, passes[1], cache)
            units = PER_LAYER_UNITS
            for r in passes[1].runs:
                m = tracing.layer_metrics([tracing.read_spans(r.spans_path)])
                if r.op.command in ("certify", "count") and r.wall_s > 1:
                    print(f"# {name} traced op `{' '.join(r.op.argv)}`: {r.wall_s:.3f} s wall, "
                          f"counting cpu/wall {m['counting.cpu_over_wall']:.3f}")
            for key, value in metrics.items():
                print(f"{name}.{key} {value:.6g} {units[key]}")
        else:
            metrics, units = summary, dict(END_TO_END)
        return {"correct": not problems, "attempted": attempted, "failed": len(op_problems),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def git_commit() -> str:
    head = W.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = W.ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = W.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((W.ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(W.ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (W.ROOT / "src" / "powfree" / "cli.py").is_file():
        print(f"perfbench: no powfree source under {W.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(W.ROOT / "src"))
    expected = W.Expected()
    oracles = W.load_oracles()
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "src_sha256": source_digest(),
        "oracles": "tests/oracles.py" if oracles else "missing",
        "ops": {n: len(W.build(n, args.seed, plan_rounds(n, args.seconds, args.trace)).ops)
                for n in names},
        "loadavg_start": loadavg(),
    }
    steal_start = steal_s()
    print("# header " + json.dumps(header), flush=True)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), expected, oracles)
               for n in names}
    print("# footer " + json.dumps({"loadavg_end": loadavg(),
                                    "steal_s": round(steal_s() - steal_start, 2)}))
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
