"""Exception types shared across the package."""

from __future__ import annotations


class LcpBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LcpBoundsError):
    """An argument lies outside the domain an operation is defined on."""


class DimensionMismatch(LcpBoundsError):
    """Operands have incompatible dimensions."""


class DimensionTooLarge(LcpBoundsError):
    """The instance exceeds the size limit of an enumeration-based routine."""


class DimensionTooSmall(LcpBoundsError):
    """The instance is below the minimum size an operation requires."""


class SingularMatrix(LcpBoundsError):
    """A matrix required to be invertible is numerically singular."""


class ZeroDiagonal(LcpBoundsError):
    """A diagonal entry needed as a divisor is exactly zero.

    ``index`` is the offending 1-based row/column index.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal entry at position {index}")


class NoSolution(LcpBoundsError):
    """No feasible complementary basis exists for the given instance."""


class InapplicableBound(LcpBoundsError):
    """A certificate was requested from a bound report that is not applicable."""


class PreconditionFailed(LcpBoundsError):
    """The input does not satisfy a documented precondition."""


class ParseError(LcpBoundsError):
    """A matrix or vector file could not be parsed.

    ``line`` and ``column`` are 1-based positions of the offending token.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class NonSquare(LcpBoundsError):
    """The parsed data does not form a square matrix."""


class EmptyFile(LcpBoundsError):
    """The input file contains no data."""
