"""Exception types shared across the package, and `format_number`, the
rule by which command output and the reasons of an empty region print a
measured value.

The command line maps each to one exit code: a ValidationError or a
ParseError is an input error (2), an EmptyRegionError an empty feasible
region (3), a NumericalError a numerical failure (4).
"""


def format_number(v: float, decimals: int) -> str:
    """`v` with `decimals` decimals, or with six significant digits where
    that form shows no nonzero digit or takes more than 12 characters."""
    text = f"{v:.{decimals}f}"
    return text if len(text) <= 12 and text.strip("-0.") else f"{v:.6g}"


class UavliftError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(UavliftError, ValueError):
    """A value, alone or with others, violates a documented invariant or
    precondition, as radio parameters whose system constant overflows."""


class ParseError(UavliftError, ValueError):
    """A scenario or report file is malformed; the message names the field."""


class EmptyRegionError(UavliftError, RuntimeError):
    """An operation required a non-empty feasible region."""


class NumericalError(UavliftError, RuntimeError):
    """A computation produced a NaN or infinity."""
