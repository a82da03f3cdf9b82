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


class DomainTruncationError(WarpcheckError):
    """An IVP solution left its admissible region, or ran out of steps,
    before the requested endpoint.

    ``reached`` is the last time the solution was valid. No partial solution
    is kept: the refusal is raised before one is built.
    """

    def __init__(self, message, reached):
        super().__init__(message)
        self.reached = reached


class IntegrationQualityError(WarpcheckError):
    """A stored solution failed its independent quality check (e.g. a first
    integral drifted beyond the allowed bound)."""


class ConstructionError(WarpcheckError):
    """A constructed object failed its own post-conditions."""


class SingularPointError(WarpcheckError):
    """Pointwise curvature evaluation requested inside the exclusion zone of a
    collapsing endpoint, where the warped-product formulas divide by zero."""


class SearchFailureError(WarpcheckError):
    """A parameter search exhausted the candidates it tries without
    certifying one; the message names the range tried, the last candidate
    and the checks it failed."""


def int_ge(name: str, v, lo: int) -> int:
    """``v`` if it is an int (a bool is not) of at least ``lo``; otherwise an
    InputError naming ``name``."""
    if not (isinstance(v, int) and not isinstance(v, bool)) or v < lo:
        raise InputError(f"{name} must be an integer >= {lo}, got {v!r}")
    return v


def removed(name: str):
    """A stand-in for the deleted function ``name``, which raises
    WarpcheckError naming it. perfbench/tracer.py's ``SPECS`` looks some
    deleted names up by ``getattr``; each stand-in goes when ``SPECS`` drops
    its name."""

    def stand_in(*args, **kwargs):
        raise WarpcheckError(f"{name} has been removed from warpcheck")

    return stand_in
