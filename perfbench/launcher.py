"""Run one powfree CLI invocation with spans around each layer's public calls.

    python3 perfbench/launcher.py SPANS_FILE ARGS...

ARGS are the arguments after `powfree`.  The wrappers record spans (name,
start, end, parent, attributes) in memory; they are written to SPANS_FILE as
JSON lines when the command returns, and the exit code is the CLI's.  Pool
workers forked by the program inherit the wrappers but never write spans.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# The layer boundaries the benchmark times: (module, attribute).  A span is
# named after the module's last component and the attribute's last component.
TRACED = (
    ("powfree.cli", "main"),
    ("powfree.words", "find_violation"),
    ("powfree.counting", "count_free"),
    ("powfree.counting", "count_tail_restricted"),
    ("powfree.cache", "CountCache.get"),
    ("powfree.cache", "CountCache.put"),
    ("powfree.cache", "CountCache.entries"),
    ("powfree.bounds", "certify"),
    ("powfree.bounds", "rational_witness"),
    ("powfree.analyze", "fj_audit"),
    ("powfree.analyze", "suffix_determination_check"),
    ("powfree.analyze", "conjecture_report"),
)
SPAN_NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
                   for module, attr in TRACED)
COUNTING = ("counting.count_free", "counting.count_tail_restricted")


def _cpu_with_children() -> float:
    """CPU of this process plus every child it has waited for, pool workers included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else -1, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            cpu0 = _cpu_with_children() if name in COUNTING else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if cpu0 is not None:
                    span["attrs"]["cpu_s"] = _cpu_with_children() - cpu0
            if name == "words.find_violation":
                span["attrs"]["letters"] = len(args[0])
            elif name in COUNTING:
                span["attrs"]["terms"] = len(result.counts)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> None:
    """Replace each traced callable wherever a powfree module holds a reference to it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "powfree" or name.startswith("powfree.")]
    for (module_name, attr), name in zip(TRACED, SPAN_NAMES):
        owner = sys.modules[module_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        wrapped = recorder.wrap(name, original)
        if cls_path:
            setattr(owner, fn_name, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    span = recorder.open("cli.import")
    import powfree.cli
    recorder.close(span)
    install(recorder)
    try:
        return powfree.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
