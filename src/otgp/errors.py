"""Exception hierarchy.

Validation errors indicate bad inputs (CLI exit code 2); numerical errors
indicate a computation that could not be completed (CLI exit code 3).
"""


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
