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
    """The constructor cannot proceed; the input ordering is not ready.

    ``violation`` is the ``(k, Violation)`` pair that ``check_ready``
    reports for the same ordering, and the message is its detail text.
    ``row``/``col`` are the 0-based cursor position of the block that
    cannot be placed.  ``reason`` names the failure: "block-infeasible"
    for ``NORM_BOUND_II`` (no block with these masses exists) and
    "gap-ii" for ``GAP_II`` (no partner column, or the block overfills
    the next row).
    """

    exit_code = 2

    def __init__(self, message: str, row: int, col: int, violation: tuple):
        super().__init__(message)
        self.row = row
        self.col = col
        self.violation = violation

    @property
    def reason(self) -> str:
        condition = self.violation[1].value
        return "block-infeasible" if condition == "norm-bound-ii" else condition


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
