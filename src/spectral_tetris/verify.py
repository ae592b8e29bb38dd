"""Verification of synthesis matrices: exact, or float on request.

Row and column squared sums are always exact (sums of the entries'
int ``num / den`` squares).  Each row and column keeps a reduced running
``num / den`` of ints through :func:`~spectral_tetris.scalar.add_ratios`,
compared with the spec's own int pairs; the report makes one Fraction per
distinct sum.

Two rows can have a nonzero inner product only through the columns they
share, so orthogonality walks the column runs of the entries (stored
sorted by column) and looks only at row pairs that meet in some column:
O(sum of nnz_c^2) cross terms instead of O(N^2) row pairs.

Exact mode decides each pair's sum of signed radicals on ints, without
factoring.  The cross term of the entries sqrt(n1/d1) and sqrt(n2/d2)
is sqrt(P) / q with P = n1*n2*d1*d2 and q = d1*d2.  Square roots of
positive rationals from distinct square classes are linearly
independent over Q (Besicovitch, 1940), and sqrt(P), sqrt(P0) share a
class iff P*P0 is a perfect square, which one ``math.isqrt`` settles.
Each class sums its terms as an int ``num / den`` pair, so a sum is
zero iff every class numerator is 0.  Float mode accumulates the
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
from .errors import ZeroColumnError, ZeroRowError
from .readiness import FrameSpec, Ratio
from .scalar import add_ratios
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


def _first_zero(indices, size: int) -> int | None:
    """The least index in range(size) that no entry carries, or None.

    Allocates by the number of entries, never by ``size``.
    """
    carried = set(indices)
    if len(carried) == size:
        return None
    return next(i for i in range(size) if i not in carried)


def _require_rows(matrix: SynthesisMatrix) -> None:
    index = _first_zero((r for r, _, _ in matrix.entries), matrix.dim)
    if index is not None:
        raise ZeroRowError(f"row {index} is zero; the lower frame bound fails")


def require_nonzero_lines(matrix: SynthesisMatrix) -> None:
    """Raise on the first zero row, else on the first zero column.

    A zero column is a zero vector, which no spec's positive squared
    norms can match.  ``verify`` applies this to every matrix it reads,
    before anything is allocated by the file's ``count``;
    :func:`verify_matrix` itself accepts zero columns.
    """
    _require_rows(matrix)
    index = _first_zero((c for _, c, _ in matrix.entries), matrix.count)
    if index is not None:
        raise ZeroColumnError(f"column {index} is zero; no spec's positive squared norms match it")


def _square_sums(matrix: SynthesisMatrix) -> tuple[list[Ratio], list[Ratio]]:
    """Exact row and column square sums as reduced ``add_ratios`` pairs;
    raises ZeroRowError on a zero row.

    A row is zero iff it carries no nonzero entry.  That is tested before
    any list of length ``dim`` is allocated, so a matrix file cannot ask
    for memory by its ``dim`` alone.
    """
    _require_rows(matrix)
    row_num, row_den = [0] * matrix.dim, [1] * matrix.dim
    col_num, col_den = [0] * matrix.count, [1] * matrix.count
    for r, c, value in matrix.entries:
        num, den = value.num, value.den
        row_num[r], row_den[r] = add_ratios(row_num[r], row_den[r], num, den)
        col_num[c], col_den[c] = add_ratios(col_num[c], col_den[c], num, den)
    return list(zip(row_num, row_den)), list(zip(col_num, col_den))


def _columns(matrix: SynthesisMatrix) -> list[Column]:
    """The runs of entries that share a column; empty columns have none."""
    return [list(run) for _, run in groupby(matrix.entries, key=itemgetter(1))]


def _radical_sum_is_zero(terms: dict[tuple[int, int], int]) -> bool:
    """Whether sum(m * sqrt(P) / q) over ``terms`` ((P, q) -> m) is zero.

    Every P is positive.  Terms are merged into square classes, each with
    a representative P0: sqrt(P) = isqrt(P * P0) / sqrt(P0) when P * P0
    is a perfect square.  A class keeps sum(m * isqrt(P * P0) / q) as
    an exact int ``num / den``, so the sum is zero iff every num is 0.
    """
    classes: list[list[int]] = []  # [P0, num, den]
    for (product, q), multiplicity in terms.items():
        if multiplicity == 0:
            continue
        for group in classes:
            square = product * group[0]
            root = math.isqrt(square)
            if root * root == square:
                group[1:] = add_ratios(group[1], group[2], multiplicity * root, q)
                break
        else:
            classes.append([product, multiplicity * product, q])
    return all(num == 0 for _, num, _ in classes)


def _rows_orthogonal_exact(columns: list[Column]) -> bool:
    # Per sharing row pair (i < j): (P, q) -> sum of sign products.  The
    # entries sqrt(n1/d1) and sqrt(n2/d2) multiply to sqrt(P) / q with
    # P = n1*n2*d1*d2 and q = d1*d2.
    pairs: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for column in columns:
        for a in range(len(column) - 1):
            row_a, _, left = column[a]
            n_a, d_a = left.num, left.den
            for row_b, _, right in column[a + 1 :]:
                key = (row_a, row_b) if row_a < row_b else (row_b, row_a)
                terms = pairs.setdefault(key, {})
                q = d_a * right.den
                term = (n_a * right.num * q, q)
                terms[term] = terms.get(term, 0) + left.sign * right.sign
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
    tol: float | None = None,
) -> VerificationReport:
    """Full report; raises ZeroRowError when a row has no mass at all.

    ``tol=None`` decides exactly and never falls back to floats.  A
    number runs float mode and must be nonnegative, so that row pairs
    sharing no column are orthogonal in either mode.
    """
    if tol is not None and not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    rows, cols = _square_sums(matrix)
    columns = _columns(matrix)
    if tol is None:
        orthogonal = _rows_orthogonal_exact(columns)
        mode_label = "exact"
    else:
        orthogonal = _rows_orthogonal_float(matrix, columns, tol)
        mode_label = f"float({tol:g})"
    matches: bool | None = None
    if spec is not None:
        matches = (
            rows == list(spec._eigen_pairs) and cols == list(spec._norm_pairs) and orthogonal
        )
    # one Fraction per distinct sum, shared: Fractions are immutable
    made = {pair: Fraction(*pair) for pair in {*rows, *cols}}
    distinct_rows = [made[pair] for pair in set(rows)]
    return VerificationReport(
        row_square_sums=tuple(map(made.__getitem__, rows)),
        col_square_sums=tuple(map(made.__getitem__, cols)),
        orthogonal=orthogonal,
        orthogonality_mode=mode_label,
        nnz=len(matrix.entries),
        frame_bounds=(min(distinct_rows), max(distinct_rows)) if orthogonal else None,
        matches_spec=matches,
    )
