"""Exception hierarchy and the scalar argument rules.

Validation errors indicate bad inputs (CLI exit code 2); numerical errors
indicate a computation that could not be completed (CLI exit code 3).
"""

import math
from numbers import Integral, Real


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


# The scalar argument rules, keyed by the words of their messages: a test of the
# value as a float, and whether the rule is a count's, which takes integers only.
RULES = {
    "a number": (lambda x: True, False),
    "finite": (lambda x: -math.inf < x < math.inf, False),
    "finite and >= 0": (lambda x: 0.0 <= x < math.inf, False),
    "finite and positive": (lambda x: 0.0 < x < math.inf, False),
    "positive": (lambda x: x > 0.0, False),
    ">= 0": (lambda x: x >= 0, True),
    ">= 1": (lambda x: x >= 1, True),
    ">= 2": (lambda x: x >= 2, True),
}


def check_arg(name: str, value, rule: str, item: int | None = None, shown=None) -> float:
    """value as a float if it is a real number, not a bool ("{name} {value!r} is not a
    number"), keeping rule, a key of RULES ("{name} must be {rule}, got {shown}"); a count
    must be an integer, numpy's too ("{name} must be an integer, got {shown}"). shown
    defaults to value, or its repr if not a number; a huge integer counts as infinite."""
    keeps, count = RULES[rule]
    kind = type(value)
    # exact floats and ints first: the ABC checks cost several times more
    real = kind is float or kind is int or (kind is not bool and isinstance(value, Real))
    if not real and not count:
        raise ValidationError(f"{name} {value!r} is not a number", item)
    shown = (value if real else repr(value)) if shown is None else shown
    if count and not (kind is int or (real and isinstance(value, Integral))):
        raise ValidationError(f"{name} must be an integer, got {shown}", item)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not keeps(number):
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
