"""Exception vocabulary shared by all modules.

The CLI maps these onto exit codes: GenerationError -> 1, InputError -> 2,
and InternalConsistencyError, like any exception it does not expect, -> 4
with one "internal error:" line on stderr.  No verb raises BudgetExhausted.
Definite negative results (inconsistent, counterexample, infeasible) are
ordinary return values, not exceptions.
"""


class HypertemplateError(Exception):
    """Base class for all package errors."""


class InputError(HypertemplateError):
    """Malformed or out-of-range input."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class GenerationError(HypertemplateError):
    """Random generation exhausted its retry budget without a valid object."""


class BudgetExhausted(HypertemplateError):
    """An exhaustive search exceeded its budget; result is indeterminate."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalConsistencyError(HypertemplateError):
    """A guarantee that should hold by construction was violated, e.g. a
    template whose declared extension arities do not actually hold.

    The inputs passed every check meant to reject them, so the CLI reports
    this as an internal error (exit 4), not as an input error."""
