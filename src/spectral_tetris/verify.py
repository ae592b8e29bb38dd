"""Verification of synthesis matrices: exact, or float on request.

Row and column squared sums are always exact (sums of the entries'
int ``num / den`` squares).  Each row and column keeps a reduced running
``num / den`` of ints through :func:`~spectral_tetris.scalar.add_ratios`,
compared with the spec's own int pairs; the report makes one Fraction per
distinct sum.

Two rows can have a nonzero inner product only through the columns they
share.  Both modes decide those row pairs through one walker, one row at
a time, and stop at the first pair that fails: memory is O(nnz) plus one
row's pairs, and time O(sum of nnz_c^2), a sparse Gram matrix, when
every pair must be decided.

Exact mode decides each pair's sum of signed radicals on ints, without
factoring.  The cross term of the entries sqrt(n1/d1) and sqrt(n2/d2)
is sqrt(P) / q with P = n1*n2*d1*d2 and q = d1*d2.  Square roots of
positive rationals from distinct square classes are linearly
independent over Q (Besicovitch, 1940), and sqrt(P), sqrt(P0) share a
class iff P*P0 is a perfect square, which one ``math.isqrt`` settles.
Each class sums its terms as an int ``num / den`` pair, so a sum is
zero iff every class numerator is 0.  Float mode adds the same cross
terms as doubles, in ascending column order, and compares each
normalized inner product against a tolerance.  Frame bounds come from
the row sums once the frame operator is verified diagonal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .construct import SynthesisMatrix
from .errors import ZeroColumnError, ZeroRowError
from .readiness import FrameSpec, Ratio
from .scalar import add_ratios
from .scalar import canonicalize  # noqa: F401  (bench/tracing.py wraps verify.canonicalize)

DEFAULT_FLOAT_TOL = 1e-10


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
    return len(matrix.entries), max(Counter(c for _, c, _ in matrix.entries).values(), default=0)


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


def _row_pairs(entries):
    """Per row i with a later row in a shared column, ``(i, partners)``: each
    such row j maps to the ``(value of i, value of j)`` of their shared
    columns, in column order.  ``entries`` are sorted by (col, row)."""
    index: dict[int, list] = {}  # row -> (its column's run, its place there)
    column = None
    for entry in entries:
        if entry[1] == column:
            index.setdefault(run[-1][0], []).append((run, len(run) - 1))
            run.append(entry)
        else:
            column, run = entry[1], [entry]
    for i, places in index.items():
        partners: dict[int, list] = {}
        for run, place in places:
            left = run[place][2]
            for j, _, right in run[place + 1 :]:
                partners.setdefault(j, []).append((left, right))
        yield i, partners


def _radical_sum_is_zero(products) -> bool:
    """Whether the sum of the radical products ``left * right`` is zero:
    equal (P, q) terms are added, then merged into square classes with
    representatives P0, as sqrt(P) = isqrt(P * P0) / sqrt(P0) when P * P0
    is a perfect square; each class sums as an exact int ``num / den``."""
    terms: dict[tuple[int, int], int] = {}  # (P, q) -> sum of sign products
    for left, right in products:
        q = left.den * right.den
        term = (left.num * right.num * q, q)
        terms[term] = terms.get(term, 0) + left.sign * right.sign
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


def _rows_orthogonal_float(matrix: SynthesisMatrix, tol: float) -> bool:
    # Each pair's terms are added in ascending column order, as in a dense
    # dot product.  Each row is scaled by the power of two that puts its
    # largest entry in [0.5, 1), so no product or square overflows; that
    # is exact and the test is homogeneous in each row, so a verdict
    # reached without overflow or underflow is bit-identical.
    floats = [(r, c, float(value)) for r, c, value in matrix.entries]
    largest = [0.0] * matrix.dim
    for r, _, x in floats:
        largest[r] = max(largest[r], abs(x))
    shifts = [-math.frexp(x)[1] for x in largest]
    scaled = [(r, c, math.ldexp(x, shifts[r])) for r, c, x in floats]
    norms_sq = [0.0] * matrix.dim
    for r, _, x in scaled:
        norms_sq[r] += x * x
    norms = [total**0.5 for total in norms_sq]
    for i, partners in _row_pairs(scaled):
        for j, products in partners.items():
            total = 0.0
            for x, y in products:
                total += x * y
            if abs(total) > tol * norms[i] * norms[j]:
                return False
    return True


def verify_matrix(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    tol: float | None = None,
) -> VerificationReport:
    """Full report; raises ZeroRowError when a row has no mass at all.

    ``tol=None`` decides exactly and never falls back to floats.  A
    number runs float mode and must be nonnegative, so that row pairs
    sharing no column are orthogonal in either mode, and finite, so that
    some pair of rows can fail the test.
    """
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    rows, cols = _square_sums(matrix)
    if tol is None:
        pairs = (pair for _, partners in _row_pairs(matrix.entries) for pair in partners.values())
        orthogonal = all(map(_radical_sum_is_zero, pairs))
        mode_label = "exact"
    else:
        orthogonal = _rows_orthogonal_float(matrix, tol)
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
