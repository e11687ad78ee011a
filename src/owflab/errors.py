"""Shared exception types."""


class BudgetError(RuntimeError):
    """An exact enumeration or simulation exceeded its configured budget."""


class TapeExhausted(RuntimeError):
    """A bit tape holds fewer bits than a read or a run needs.  It is raised
    before the read that would run out, which consumes nothing; bits read
    before it, such as ``owf_evaluate``'s payload, stay consumed."""


class DegenerateParameters(ValueError):
    """Sampler parameters fall outside the regime the algorithm supports."""


class InvariantViolation(AssertionError):
    """An internal invariant failed.  Raised explicitly, so the check also
    runs under ``python -O``."""
