"""Exception hierarchy: two classes.

Verification *failures* (a check measuring false) are never exceptions; they
are carried in verdict objects. ``InputError`` means the inputs are refused:
the hypothesis cannot be posed for them (a collapsed slice, an IVP leaving
its admissible region, a missing factor volume, a search certifying nothing).
``WarpcheckError`` itself means a computation that should complete did not.
"""


class WarpcheckError(Exception):
    """A computation that should complete did not; base of InputError."""


class InputError(WarpcheckError):
    """The inputs are refused: the hypothesis cannot be posed for them."""


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
