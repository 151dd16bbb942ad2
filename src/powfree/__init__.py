"""Exact toolkit for power-free words.

Detection of fractional-power violations, exact counting of threshold-free
words over k-letter alphabets, growth-rate estimation, and machine-checked
rational lower-bound certificates.
"""

from .analyze import (
    FjAudit,
    FjAuditRow,
    GrowthEstimate,
    ReportRow,
    REPORT_COLUMNS,
    conjecture_report,
    fj_audit,
    growth_estimate,
    suffix_determination_check,
)
from .bounds import (
    BoundCertificate,
    asymptotic_target,
    certify,
    closed_form_root,
    condition_margin,
    rational_witness,
    taylor_coefficients,
)
from .cache import CountCache
from .counting import (
    DEFAULT_NAIVE_BUDGET,
    METHODS,
    CountSeries,
    count_free,
    count_tail_restricted,
)
from .errors import (
    BudgetExceededError,
    LemmaViolationError,
    NoWitnessError,
    PowfreeError,
    ValidationError,
)
from .words import (
    Threshold,
    ViolationWitness,
    Word,
    extension_ok,
    find_violation,
    min_violation_length,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "BudgetExceededError",
    "CountCache",
    "CountSeries",
    "DEFAULT_NAIVE_BUDGET",
    "FjAudit",
    "FjAuditRow",
    "GrowthEstimate",
    "LemmaViolationError",
    "METHODS",
    "NoWitnessError",
    "PowfreeError",
    "REPORT_COLUMNS",
    "ReportRow",
    "Threshold",
    "ValidationError",
    "ViolationWitness",
    "Word",
    "asymptotic_target",
    "certify",
    "closed_form_root",
    "condition_margin",
    "conjecture_report",
    "count_free",
    "count_tail_restricted",
    "extension_ok",
    "find_violation",
    "fj_audit",
    "growth_estimate",
    "min_violation_length",
    "rational_witness",
    "suffix_determination_check",
    "taylor_coefficients",
    "__version__",
]
