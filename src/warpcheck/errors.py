"""Exception hierarchy.

Verification *failures* (a check measuring false) are never exceptions; they
are carried in verdict objects. Exceptions are reserved for invalid inputs,
missing data, and computations that could not be completed.
"""


class WarpcheckError(Exception):
    """Base class for all package errors."""


class InputError(WarpcheckError):
    """Invalid argument or precondition violation."""


class DataMissingError(WarpcheckError):
    """An operation needed optional data (e.g. a factor volume) that is unset."""


class GlueMismatchError(WarpcheckError):
    """Profiles cannot be spliced: value or slope mismatch at the joint.

    Carries both sides so callers can report the discrepancy.
    """

    def __init__(self, message, left, right):
        super().__init__(message)
        self.left = left
        self.right = right


class DomainTruncationError(WarpcheckError):
    """An IVP solution left its admissible region before the requested endpoint.

    ``reached`` is the last time the solution was valid; ``solution`` holds the
    partial dense solution up to that time.
    """

    def __init__(self, message, reached, solution=None):
        super().__init__(message)
        self.reached = reached
        self.solution = solution


class IntegrationQualityError(WarpcheckError):
    """A stored solution failed its independent quality check (e.g. a first
    integral drifted beyond the allowed bound)."""


class ConstructionError(WarpcheckError):
    """A constructed object failed its own post-conditions."""


class SingularPointError(WarpcheckError):
    """Pointwise curvature evaluation requested inside the exclusion zone of a
    collapsing endpoint, where the warped-product formulas divide by zero."""


class SearchFailureError(WarpcheckError):
    """A parameter search exhausted its range without certifying a candidate.

    ``diagnostics`` holds the failed checks of the last candidate tried.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


def int_ge(name: str, v, lo: int) -> int:
    """``v`` if it is an int (a bool is not) of at least ``lo``; otherwise an
    InputError naming ``name``."""
    if not (isinstance(v, int) and not isinstance(v, bool)) or v < lo:
        raise InputError(f"{name} must be an integer >= {lo}, got {v!r}")
    return v
