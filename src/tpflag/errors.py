"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; plain ``ValueError`` is reserved for malformed input (bad JSON,
out-of-range indices, wrong shapes).
"""


class TotalPositivityError(Exception):
    """Base class for domain-level failures.  A failed membership test
    passes its verdict along, so callers can show the witness."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class DecompositionUnavailable(TotalPositivityError):
    """A trailing principal minor vanishes, so the unit-upper * torus *
    unit-lower factorization does not exist (the matrix lies outside the
    open cell)."""


class NotInCell(TotalPositivityError):
    """The triangular system for the cell parameters forces a
    non-positive or inconsistent parameter: the matrix is not in the
    requested cell."""


class NotPositive(TotalPositivityError):
    """A required total-positivity membership test returned a negative
    verdict.  Carries the verdict so callers can show the witness."""


class NotInTorusSet(TotalPositivityError):
    """The torus point is outside the domain where the conjugated
    product stays totally positive."""


class NoConvergence(TotalPositivityError):
    """No Newton start reached the residual tolerance.  This is
    evidence, not a bug: it must be surfaced to the caller, never
    swallowed."""


class EigenvalueCollision(TotalPositivityError):
    """Float eigenvalues came out closer than the separation threshold
    (or not real).  Totally positive matrices have distinct positive
    eigenvalues, so this signals precision loss, not a math failure."""


class NotInFibre(TotalPositivityError):
    """The group element does not lie in the requested Borel."""


class MembershipViolation(TotalPositivityError):
    """A membership that is implied by the fibre-parametrization
    argument failed to hold.  This must never fire on valid input; if
    it does, abort loudly rather than continue with garbage."""


class FlagComputationError(TotalPositivityError):
    """The float flag pipeline produced an internally inconsistent
    result (bad pivot, failed triangularity or line-agreement check)."""
