"""Shared exception types."""


class BudgetError(RuntimeError):
    """An exact enumeration or simulation exceeded its configured budget."""


class TapeExhausted(RuntimeError):
    """A bit tape ran out before the requested draw; nothing was consumed."""


class DegenerateParameters(ValueError):
    """Sampler parameters fall outside the regime the algorithm supports."""


class InvariantViolation(AssertionError):
    """An internal invariant failed.  Raised explicitly, so the check also
    runs under ``python -O``."""
