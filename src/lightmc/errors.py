"""Exception types shared across the package, and the rule for numeric settings."""

import math
import numbers
import operator

_BOUND_TESTS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class LightMCError(Exception):
    """Base class for every error raised by this package."""


class InvalidArg(LightMCError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibleCode(InvalidArg):
    """No valid binary coding matrix exists for the requested dimensions."""


class DimensionMismatch(LightMCError, ValueError):
    """Array shapes are inconsistent with each other or with a model."""


class IndexOutOfRange(LightMCError, IndexError):
    """A class, column, or feature index is outside its valid range."""


class NonFiniteInput(LightMCError, ValueError):
    """An input contains NaN or infinity."""


class NonFiniteGradient(LightMCError, ArithmeticError):
    """A gradient or updated parameter became NaN or infinite."""


class ParseError(LightMCError, ValueError):
    """A text file could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyFile(LightMCError, ValueError):
    """A dataset file contains no data lines."""


class EmptyDataset(LightMCError, ValueError):
    """An operation requires at least one instance."""


class TooFewInstances(LightMCError, ValueError):
    """A class has too few instances for the requested split."""


class MissingClass(LightMCError, ValueError):
    """Some class in [0, K) has no training instances."""


class ConfigInvalid(LightMCError, ValueError):
    """A training configuration fails validation."""


def check_settings(error: type[LightMCError], table) -> None:
    """Raise `error` naming the first setting in `table` that breaks its rule.

    Each row is (name, value, kind, *bounds). Kind `int` is a count, which
    must be an integer (bools pass); kind `float` is a real, which must be a
    finite number. Each bound is an operator and a number, such as ">= 1",
    "> 0", "< 3" or "<= 1", and the value must satisfy all of them.
    """
    for name, value, kind, *bounds in table:
        is_number = isinstance(value, numbers.Integral) or (
            kind is float and isinstance(value, numbers.Real) and math.isfinite(value)
        )
        if not (is_number and all(_BOUND_TESTS[op](value, float(limit))
                                  for op, limit in map(str.split, bounds))):
            rule = "an integer" if kind is int else "a finite number"
            rule = f"{rule} {' and '.join(bounds)}".rstrip()
            raise error(f"{name} must be {rule}, got {value!r}")
