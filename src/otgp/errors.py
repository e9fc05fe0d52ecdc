"""Exception hierarchy and the argument rules for scalars and arrays.

Validation errors indicate bad inputs (CLI exit code 2); numerical errors
indicate a computation that could not be completed (CLI exit code 3).
"""

import math
from contextlib import contextmanager
from numbers import Integral, Real

import numpy as np


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


# The largest magnitude of a number the program reads: it keeps every product the pipeline
# forms finite, such as three d x d covariances (d^2 2^768) or a squared distance (2^514 d).
MAGNITUDE = 2.0**256
MAGNITUDE_RULE = "finite and within ±2^256"

# The scalar argument rules, keyed by the words of their messages: a test of the value as a
# float and the kind of number it takes: an "input" within +-MAGNITUDE, tested first; a
# "float", such as the kernel's amplitude, which grows with the responses; a "count" an integer.
RULES = {
    "finite": (lambda x: True, "input"),
    "finite and >= 0": (lambda x: x >= 0.0, "input"),
    "finite and positive": (lambda x: x > 0.0, "input"),
    "a finite float >= 0": (lambda x: 0.0 <= x < math.inf, "float"),
    ">= 0": (lambda x: x >= 0, "count"),
    ">= 1": (lambda x: x >= 1, "count"),
    ">= 2": (lambda x: x >= 2, "count"),
}


def check_arg(name: str, value, rule: str, item: int | None = None, shown=None) -> float:
    """value as a float if it is a real number, not a bool ("{name} {value!r} is not a
    number"), keeping rule, a key of RULES ("{name} must be {rule}, got {shown}"); a count
    must be an integer, numpy's too ("{name} must be an integer, got {shown}"). shown
    defaults to value, or its repr if not a number; a huge integer counts as infinite."""
    keeps, kind = RULES[rule]
    cls = type(value)
    # exact floats and ints first: the ABC checks cost several times more
    real = cls is float or cls is int or (cls is not bool and isinstance(value, Real))
    if not real and kind != "count":
        raise ValidationError(f"{name} {value!r} is not a number", item)
    shown = (value if real else repr(value)) if shown is None else shown
    if kind == "count" and not (cls is int or (real and isinstance(value, Integral))):
        raise ValidationError(f"{name} must be an integer, got {shown}", item)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if kind == "input" and not -MAGNITUDE <= number <= MAGNITUDE:  # NaN fails too
        raise ValidationError(f"{name} must be {MAGNITUDE_RULE}, got {shown}", item)
    if not keeps(number):
        raise ValidationError(f"{name} must be {rule}, got {shown}", item)
    return number


def check_array(name: str, value, item: int | None = None) -> np.ndarray:
    """value as floats, each kept by check_arg's "finite" rule and refused in its words: a
    numeric ndarray as it is, anything else leaf by leaf, as numpy alone reads booleans,
    numeric strings and None as numbers; a ragged value "{name} is not a numeric array"."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        leaves = np.asarray(value, dtype=object)
        if not set(map(type, flat := leaves.ravel().tolist())) <= {float}:  # ints may overflow
            for leaf in flat:
                if not isinstance(leaf, (list, tuple, np.ndarray)):  # a sequence: ragged
                    check_arg(name, leaf, "finite", item)
        try:
            value = leaves.astype(float)
        except (TypeError, ValueError):
            raise ValidationError(f"{name} is not a numeric array", item) from None
    array = np.asarray(value, dtype=float)
    if not (array.min(initial=0.0) >= -MAGNITUDE and array.max(initial=0.0) <= MAGNITUDE):
        check_arg(name, array.flat[np.argmax(~(np.abs(array) <= MAGNITUDE))], "finite", item)
    return array


@contextmanager
def renumbered(labels):
    """Re-raise a ValidationError about item k as one about item labels[k] (labels[0] if none)."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(exc.detail, labels[exc.item or 0]) from None


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
