"""Exact toolkit for power-free words.

Detection of fractional-power violations, exact counting of threshold-free
words over k-letter alphabets, machine-checked rational lower-bound
certificates, and the extension-census audit behind them.

The package republishes the __all__ of each module but cache, whose
CacheEntry rows stay internal.  errors and words load with the package;
analyze, bounds, cache and counting are registered with
importlib.util.LazyLoader: each is in sys.modules and an attribute of the
package from the start, and runs at its first attribute read, so a command
runs only the layers it uses.  A republished name is looked up in its module
when it is read (__getattr__), which runs that module if it has not run.
"""

from . import errors, words


def _lazy(name: str):
    """Submodule name, registered to run at its first attribute read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


analyze, bounds, cache, counting = map(_lazy, ("analyze", "bounds", "cache", "counting"))

__version__ = "0.1.0"

# Each republished name and the module that defines it.
_HOMES = {
    **dict.fromkeys(("FjAuditRow", "FjAudit", "fj_audit", "suffix_determination_check",
                     "ReportRow", "REPORT_COLUMNS", "conjecture_report"), "analyze"),
    **dict.fromkeys(("BoundCertificate", "rational_witness", "condition_margin", "lower_series",
                     "certify_series", "certify"), "bounds"),
    "CountCache": "cache",
    **dict.fromkeys(("METHODS", "DEFAULT_NAIVE_BUDGET", "CountSeries", "count_free",
                     "count_tail_restricted"), "counting"),
    **dict.fromkeys(("PowfreeError", "ValidationError", "BudgetExceededError", "NoWitnessError",
                     "LemmaViolationError"), "errors"),
    **dict.fromkeys(("Threshold", "ViolationWitness", "min_violation_length", "find_violation"),
                    "words"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOMES})
