"""Exception types shared across the package.

Each type's ``exit_code`` is the status the command-line interface exits
with when it stops on that error: 1 for invalid input, 2 for an
infeasible or unconstructible request.
"""

from __future__ import annotations


class SpectralTetrisError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class NotSortedError(SpectralTetrisError):
    """A sequence required to be sorted was not."""


class TraceMismatchError(SpectralTetrisError):
    """Sum of squared norms does not equal the sum of eigenvalues."""


class BlockInfeasibleError(SpectralTetrisError):
    """No 2x2 block with the requested row/column masses exists.

    ``condition`` records which existence condition failed:
    "positive-mass" (the first-row mass must satisfy 0 < x <= a1+a2) or
    "same-side" (both column masses must lie on the same side of x).
    """

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


class ConstructionStuckError(SpectralTetrisError):
    """The Spectral Tetris cursor is stuck; the input ordering is not ready.

    Raised by the cursor where it stops, so ``check_ready`` and ``pnstc``
    see the same failure.  ``violation`` is the ``(k, Violation)`` pair,
    the message is its detail text, and ``row``/``col`` are the 0-based
    cursor position of the block that cannot be placed.
    """

    exit_code = 2

    def __init__(self, message: str, row: int, col: int, violation: tuple):
        super().__init__(message)
        self.row = row
        self.col = col
        self.violation = violation


class InfeasibleError(SpectralTetrisError):
    """No unit-norm tight frame with these parameters is constructible."""

    exit_code = 2


class InvalidDimsError(SpectralTetrisError):
    """Vector count / dimension pair outside the valid range."""

    exit_code = 2


class OutOfRangeError(SpectralTetrisError):
    """Redundancy outside the open interval (1, 2)."""


class DegenerateSpectrumError(SpectralTetrisError):
    """Equal-norm construction needs at least two eigenvalues."""

    exit_code = 2


class FactorizationIncompleteError(SpectralTetrisError):
    """Square-free extraction hit a cofactor above the factor bound."""

    def __init__(self, message: str, cofactor: int):
        super().__init__(message)
        self.cofactor = cofactor


class ZeroRowError(SpectralTetrisError):
    """A synthesis matrix row is identically zero; not a frame."""

    exit_code = 2


class ZeroColumnError(SpectralTetrisError):
    """A matrix file has a column with no nonzero entry, a zero vector."""

    exit_code = 2
