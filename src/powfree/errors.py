"""Exception types shared across the toolkit."""


class PowfreeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PowfreeError, ValueError):
    """An argument is out of range or malformed: a usage error, not a bug.

    A ValueError too, so callers that catch ValueError keep working.
    """


class BudgetExceededError(PowfreeError):
    """An exhaustive operation would exceed its configured work budget."""

    def __init__(self, message: str, parameter: str | None = None):
        super().__init__(message)
        self.parameter = parameter


class NoWitnessError(PowfreeError):
    """The witness condition admits no x > 1 at these parameters."""


class LemmaViolationError(PowfreeError):
    """An exactly-checked inequality that must hold has failed.

    The ratio and audit inequalities are mathematically guaranteed, so this
    exception always indicates a bug in the counting or certification code,
    never a property of the input.
    """
