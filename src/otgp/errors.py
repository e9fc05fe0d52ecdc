"""Exception hierarchy and the scalar argument rules.

Validation errors indicate bad inputs (CLI exit code 2); numerical errors
indicate a computation that could not be completed (CLI exit code 3).
"""

import math
from numbers import Integral


class OtgpError(Exception):
    pass


class ValidationError(OtgpError):
    """Bad input. item, when given, is the index of the failing element of a
    collection; the message then starts with it and detail holds the rest."""

    def __init__(self, detail: str = "", item: int | None = None):
        super().__init__(detail if item is None else f"item {item}: {detail}")
        self.detail, self.item = detail, item


class NumericalError(OtgpError):
    pass


# The scalar argument rules, keyed by the words of their messages.
RULES = {
    "finite": lambda x: -math.inf < x < math.inf,
    "finite and >= 0": lambda x: 0.0 <= x < math.inf,
    "finite and positive": lambda x: 0.0 < x < math.inf,
    ">= 1": lambda x: x >= 1,
}


def check_arg(name: str, value, rule: str, item: int | None = None, shown=None) -> float:
    """value as a float if it keeps rule, a key of RULES; otherwise ValidationError
    "{name} must be {rule}, got {shown}", shown defaulting to value. An integer
    beyond the float range counts as infinite. A count, rule ">= 1", must also
    be an integer (numpy's too), not a bool: "{name} must be an integer"."""
    shown = value if shown is None else shown
    if rule == ">= 1" and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValidationError(f"{name} must be an integer, got {shown}", item)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not RULES[rule](number):
        raise ValidationError(f"{name} must be {rule}, got {shown}", item)
    return number


class NotSymmetric(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class GridMismatch(ValidationError):
    pass


class ReferenceMismatch(ValidationError):
    pass


class EmptySupport(ValidationError):
    pass


class EmptyRow(ValidationError):
    pass


class ZeroVarianceTruths(ValidationError):
    pass


class DegenerateDistances(ValidationError):
    pass


class NoConvergence(NumericalError):
    pass


class NumericalUnderflow(NumericalError):
    pass


class CholeskyFailure(NumericalError):
    pass
