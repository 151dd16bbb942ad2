"""Start the benchmark's CLI processes from a small, fresh process.

    python3 -S perfbench/spawner.py

Linux carries a process's peak RSS across exec, and a forked child starts
with its parent's pages, so a child of the benchmark process would report at
least the benchmark's own peak.  This process stays small, so the peak RSS
it reports is the command's.

It reads one JSON request per line on stdin, with the keys argv, env, cwd,
out, err and timeout.  It runs argv in a session of its own, with stdout and
stderr sent to the files out and err, and answers with one JSON line with
the keys code, wall_s, cpu_s and rss_mb.  cpu_s and rss_mb come from wait4,
so they include the children the command waited for, such as pool workers.
A command still running after timeout seconds is killed with its session.
It exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["out"], flags, 0o644)
    err = os.open(request["err"], flags, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.chdir(request["cwd"])
            os.execve(request["argv"][0], request["argv"], request["env"])
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)
    signal.signal(signal.SIGALRM, lambda *_: _kill_session(pid))
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"code": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
