"""Exception taxonomy shared across the package.

UsageError maps to CLI exit code 1, DataError (and subclasses) to exit
code 2; everything derives from LczError so callers can catch broadly.
"""


class LczError(Exception):
    pass


class UsageError(LczError):
    """Caller violated a precondition (bad arguments, empty input, ...)."""


class DataError(LczError):
    """Input data or numeric state is unusable."""


class ParseError(DataError):
    """Malformed text input. Carries a 1-based line (or row) number and,
    when known, the file."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ValidationError(ParseError):
    """Well-formed input violating a domain invariant."""


class FormatError(DataError):
    """Binary container has a bad magic/version or inconsistent layout."""


class NumericError(DataError):
    """Non-finite value where a finite one is required."""

    kind = "non_finite"  # per-pair failure kind recorded by the perturb stage


class DegenerateGradientError(NumericError):
    """Gradient norm below the floor perturb.G_FLOOR; no safe latent step exists."""

    kind = "degenerate_gradient"


class DivergenceError(NumericError):
    """Training loss became non-finite."""
