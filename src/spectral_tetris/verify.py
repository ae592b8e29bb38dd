"""Verification of synthesis matrices: exact, or float on request.

Row and column squared sums are always exact (sums of radicands).  Two
rows can have a nonzero inner product only through the columns they
share, so orthogonality walks the column runs of the entries (stored
sorted by column) and looks only at row pairs that meet in some column:
O(sum of nnz_c^2) cross terms instead of O(N^2) row pairs.

Exact mode decides each pair's sum of signed radicals without
factoring.  Square roots of positive rationals from distinct square
classes are linearly independent over Q (Besicovitch, 1940), and
sqrt(a), sqrt(b) share a class iff a/b is a rational square, which
``math.isqrt`` settles on its numerator and denominator.  So a sum is
zero iff each class's coefficients cancel.  Float mode accumulates the
same cross terms as doubles, in ascending column order, and compares
each normalized inner product against a tolerance.  Frame bounds come
from the row sums once the frame operator is verified diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .construct import Entry, SynthesisMatrix
from .errors import ZeroRowError
from .readiness import FrameSpec
from .scalar import ZERO, RadicalScalar
from .scalar import canonicalize  # noqa: F401  (bench/tracing.py wraps verify.canonicalize)

DEFAULT_FLOAT_TOL = 1e-10

Column = list[Entry]  # the nonzero entries of one column, by row


@dataclass(frozen=True)
class VerificationReport:
    """Exact sums, orthogonality verdict, sparsity and frame bounds.

    ``frame_bounds`` (min, max row sum) is populated only when the rows
    verified orthogonal, since only then is the frame operator diagonal.
    ``matches_spec`` is set when a target spec was supplied.
    """

    row_square_sums: tuple[Fraction, ...]
    col_square_sums: tuple[Fraction, ...]
    orthogonal: bool
    orthogonality_mode: str  # "exact" or "float(tol)"
    nnz: int
    frame_bounds: tuple[Fraction, Fraction] | None
    matches_spec: bool | None


def sparsity(matrix: SynthesisMatrix) -> tuple[int, int]:
    """(number of nonzero entries, maximum nonzeros in any column)."""
    return len(matrix.entries), max(map(len, _columns(matrix)), default=0)


def _square_sums(matrix: SynthesisMatrix) -> tuple[list[Fraction], list[Fraction]]:
    """Exact row and column square sums; raises ZeroRowError on a zero row.

    A row is zero iff it carries no nonzero entry.  That is tested before
    any list of length ``dim`` is allocated, so a matrix file cannot ask
    for memory by its ``dim`` alone.
    """
    carried = {r for r, _, _ in matrix.entries}
    if len(carried) < matrix.dim:
        index = next(r for r in range(matrix.dim) if r not in carried)
        raise ZeroRowError(f"row {index} is zero; the lower frame bound fails")
    rows = [ZERO] * matrix.dim
    cols = [ZERO] * matrix.count
    for r, c, value in matrix.entries:
        rows[r] += value.square()
        cols[c] += value.square()
    return rows, cols


def _columns(matrix: SynthesisMatrix) -> list[Column]:
    """The runs of entries that share a column; empty columns have none."""
    return [list(run) for _, run in groupby(matrix.entries, key=itemgetter(1))]


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) when q >= 0 is a rational square, else None.

    A reduced fraction is a square iff its numerator and denominator are.
    """
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _radical_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Whether sum(m * sqrt(r)) over ``terms`` (radicand r -> m) is zero.

    Terms are merged into square classes, each with a representative
    radicand: sqrt(r) = sqrt(r / rep) * sqrt(rep) with sqrt(r / rep)
    rational.  The sum is zero iff every class coefficient is zero.
    A zero radicand carries multiplicity 0 (a zero entry has sign 0), so
    dropping zero multiplicities also keeps every representative positive.
    """
    classes: list[list] = []  # [representative radicand, coefficient]
    for radicand, multiplicity in terms.items():
        if multiplicity == 0:
            continue
        for group in classes:
            root = _rational_sqrt(radicand / group[0])
            if root is not None:
                group[1] += multiplicity * root
                break
        else:
            classes.append([radicand, Fraction(multiplicity)])
    return all(coefficient == 0 for _, coefficient in classes)


def _rows_orthogonal_exact(columns: list[Column]) -> bool:
    # per sharing row pair (i < j): product radicand -> sum of sign products
    pairs: dict[tuple[int, int], dict[Fraction, int]] = {}
    for column in columns:
        for a in range(len(column)):
            row_a, _, left = column[a]
            for row_b, _, right in column[a + 1 :]:
                key = (row_a, row_b) if row_a < row_b else (row_b, row_a)
                terms = pairs.setdefault(key, {})
                radicand = left.radicand * right.radicand
                terms[radicand] = terms.get(radicand, 0) + left.sign * right.sign
    return all(_radical_sum_is_zero(terms) for terms in pairs.values())


def _rows_orthogonal_float(matrix: SynthesisMatrix, columns: list[Column], tol: float) -> bool:
    # Terms are added in ascending column order, the order of a dense row
    # dot product; the zero terms a dense product adds change no sum.
    # Each row is scaled by the power of two that puts its largest entry
    # in [0.5, 1), so no product or square overflows.  Scaling by a power
    # of two is exact and the test is homogeneous in each row, so a
    # verdict reached without overflow or underflow is bit-identical.
    floats = [[(r, float(value)) for r, _, value in column] for column in columns]
    largest = [0.0] * matrix.dim
    for column in floats:
        for r, x in column:
            largest[r] = max(largest[r], abs(x))
    shifts = [-math.frexp(x)[1] for x in largest]
    norms_sq = [0.0] * matrix.dim
    inner: dict[tuple[int, int], float] = {}
    for column in floats:
        values = [(r, math.ldexp(x, shifts[r])) for r, x in column]
        for a, (row_a, x) in enumerate(values):
            norms_sq[row_a] += x * x
            for row_b, y in values[a + 1 :]:
                key = (row_a, row_b) if row_a < row_b else (row_b, row_a)
                inner[key] = inner.get(key, 0.0) + x * y
    norms = [total**0.5 for total in norms_sq]
    return not any(abs(total) > tol * norms[i] * norms[j] for (i, j), total in inner.items())


def verify_matrix(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    mode: str = "exact",
    tol: float = DEFAULT_FLOAT_TOL,
) -> VerificationReport:
    """Full report; raises ZeroRowError when a row has no mass at all.

    Exact mode never falls back to floats.  Float mode needs ``tol >= 0``,
    so that row pairs sharing no column are orthogonal in either mode.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "float" and not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    row_sums, col_sums = _square_sums(matrix)
    columns = _columns(matrix)
    if mode == "exact":
        orthogonal = _rows_orthogonal_exact(columns)
        mode_label = "exact"
    else:
        orthogonal = _rows_orthogonal_float(matrix, columns, tol)
        mode_label = f"float({tol:g})"
    matches: bool | None = None
    if spec is not None:
        matches = (
            tuple(row_sums) == spec.eigenvalues
            and tuple(col_sums) == spec.norms_sq
            and orthogonal
        )
    return VerificationReport(
        row_square_sums=tuple(row_sums),
        col_square_sums=tuple(col_sums),
        orthogonal=orthogonal,
        orthogonality_mode=mode_label,
        nnz=len(matrix.entries),
        frame_bounds=(min(row_sums), max(row_sums)) if orthogonal else None,
        matches_spec=matches,
    )
