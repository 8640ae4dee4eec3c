"""Exception vocabulary shared by all modules.

The CLI maps these onto exit codes: InputError -> 2, and
InternalConsistencyError, like any exception it does not expect, -> 4 with
one "internal error:" line on stderr.  Definite negative results
(inconsistent, counterexample, infeasible) and budget stops are ordinary
return values, not exceptions.
"""


class HypertemplateError(Exception):
    """Base class for all package errors."""


class InputError(HypertemplateError):
    """Malformed or out-of-range input."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class InternalConsistencyError(HypertemplateError):
    """A guarantee that should hold by construction was violated, e.g. a
    template whose declared extension arities do not actually hold.

    The inputs passed every check meant to reject them, so the CLI reports
    this as an internal error (exit 4), not as an input error."""
