import math
import random
from fractions import Fraction

import pytest

from spectral_tetris import (
    FrameSpec,
    RadicalScalar,
    ZeroRowError,
    check_ready,
    pnstc,
    sparsity,
    stc,
    unit_tight,
    verify_matrix,
)
from spectral_tetris.verify import _square_sums
from helpers import (
    canonical_radical,
    cell,
    dense_float_rows,
    matrix_from_grid,
    radical_product,
    random_mixed_spec,
    random_ready_spec,
    reference_radical_sum_is_zero,
)

F = Fraction

DEMO = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))


def test_verify_demo_matrix():
    report = verify_matrix(pnstc(DEMO), DEMO)
    assert report.row_square_sums == (15, 4, 1, 4)
    assert report.col_square_sums == (9, 4, 3, 3, 1, 4)
    assert report.orthogonal
    assert report.orthogonality_mode == "exact"
    assert report.nnz == 8
    assert report.frame_bounds == (1, 15)
    assert report.matches_spec is True


def test_sparsity_examples():
    assert sparsity(pnstc(DEMO)) == (8, 2)
    assert sparsity(unit_tight(4, 2)) == (4, 1)
    identity = matrix_from_grid([[cell(1, 1), cell(0, 0)], [cell(0, 0), cell(1, 1)]])
    assert sparsity(identity) == (2, 1)


def test_frame_bounds_examples():
    assert verify_matrix(pnstc(DEMO)).frame_bounds == (1, 15)
    assert verify_matrix(unit_tight(3, 2)).frame_bounds == (F(3, 2), F(3, 2))
    orthonormal = stc((1, 1, 1), 3)
    assert verify_matrix(orthonormal).frame_bounds == (1, 1)


def test_zero_row_is_not_a_frame():
    matrix = matrix_from_grid([[cell(1, 1), cell(1, 1)], [cell(0, 0), cell(0, 0)]])
    with pytest.raises(ZeroRowError):
        verify_matrix(matrix)


def test_mismatch_is_reported():
    wrong_spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 4, 1))
    report = verify_matrix(pnstc(DEMO), wrong_spec)
    assert report.matches_spec is False


def test_non_orthogonal_matrix_is_detected_in_both_modes():
    matrix = matrix_from_grid(
        [[cell(1, 1), cell(1, 1)], [cell(1, 1), cell(1, 4)]]
    )
    assert not verify_matrix(matrix).orthogonal
    assert not verify_matrix(matrix, tol=1e-10).orthogonal


def test_orthogonality_across_distinct_radicands():
    # sqrt(2)*sqrt(3) + sqrt(3)*sqrt(2) - sqrt(8)*sqrt(3) = 0 only because
    # sqrt(24) = 2*sqrt(6): exercises the square-class merge
    matrix = matrix_from_grid(
        [
            [cell(1, 2), cell(1, 3), cell(1, 8)],
            [cell(1, 3), cell(1, 2), cell(-1, 3)],
        ]
    )
    report = verify_matrix(matrix)
    assert report.orthogonal
    report = verify_matrix(matrix, tol=1e-10)
    assert report.orthogonal


def test_exact_and_float_verdicts_agree_on_constructions():
    rng = random.Random(808)
    for _ in range(300):
        spec = random_ready_spec(rng)
        matrix = pnstc(spec)
        exact = verify_matrix(matrix, spec)
        approx = verify_matrix(matrix, spec, tol=1e-10)
        assert exact.orthogonal and approx.orthogonal
        assert exact.row_square_sums == approx.row_square_sums
        assert exact.matches_spec and approx.matches_spec


def test_constructed_matrices_are_column_sparse():
    rng = random.Random(909)
    for _ in range(300):
        spec = random_ready_spec(rng)
        nnz, per_col = sparsity(pnstc(spec))
        assert nnz <= 2 * spec.count
        assert per_col <= 2


@pytest.mark.parametrize(
    "second_row, orthogonal",
    [
        # sqrt(2) + sqrt(2) - sqrt(8): two radicand groups, one square class
        ([cell(1, 2), cell(1, 2), cell(-1, 8), cell(0, 0)], True),
        # sqrt(6) - sqrt(6) + sqrt(3/2) - sqrt(3/2): cancels within each radicand
        ([cell(1, 6), cell(-1, 6), cell(1, F(3, 2)), cell(-1, F(3, 2))], True),
        # sqrt(2) + sqrt(8) - sqrt(18) + sqrt(3): the class of 3 is left over
        ([cell(1, 2), cell(1, 8), cell(-1, 18), cell(1, 3)], False),
    ],
)
def test_exact_orthogonality_by_square_class(second_row, orthogonal):
    matrix = matrix_from_grid([[cell(1, 1)] * 4, second_row])
    assert verify_matrix(matrix).orthogonal is orthogonal
    assert verify_matrix(matrix, tol=1e-10).orthogonal is orthogonal


def test_tolerance_selects_the_mode():
    assert verify_matrix(pnstc(DEMO), tol=None).orthogonality_mode == "exact"
    assert verify_matrix(pnstc(DEMO)).orthogonality_mode == "exact"
    assert verify_matrix(pnstc(DEMO), tol=1e-10).orthogonality_mode == "float(1e-10)"


def test_float_mode_rejects_a_negative_tolerance():
    with pytest.raises(ValueError):
        verify_matrix(pnstc(DEMO), tol=-1e-10)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_float_mode_rejects_a_tolerance_that_is_not_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        verify_matrix(pnstc(DEMO), tol=tol)


# Radicands from a few square classes: 2 (2, 8, 18, 1/2), 6 (6, 2/3, 3/2), 3, 1.
CLASS_RADICANDS = tuple(F(v) for v in ("2", "8", "18", "1/2", "6", "2/3", "3/2", "3", "1", "4/9"))


def _canonical_sum(products) -> dict[int, Fraction]:
    """Square-free part -> coefficient of a sum of radical products."""
    groups: dict[int, Fraction] = {}
    for product in products:
        coefficient, square_free = canonical_radical(product)
        groups[square_free] = groups.get(square_free, F(0)) + coefficient
    return {key: value for key, value in groups.items() if value != 0}


def _rows(matrix) -> list[dict[int, RadicalScalar]]:
    rows = [{} for _ in range(matrix.dim)]
    for r, c, value in matrix.entries:
        rows[r][c] = value
    return rows


def _oracle_exact(matrix) -> bool:
    """Every row pair, every shared column, grouped by square-free part."""
    rows = _rows(matrix)
    return all(
        not _canonical_sum(
            radical_product(rows[i][c], rows[j][c]) for c in rows[i].keys() & rows[j].keys()
        )
        for i in range(matrix.dim)
        for j in range(i + 1, matrix.dim)
    )


def _oracle_float(matrix, tol=1e-10) -> bool:
    """Dense row dot products against the normalized tolerance."""
    dense = dense_float_rows(matrix)
    norms = [sum(x * x for x in row) ** 0.5 for row in dense]
    return not any(
        abs(sum(x * y for x, y in zip(dense[i], dense[j]))) > tol * norms[i] * norms[j]
        for i in range(matrix.dim)
        for j in range(i + 1, matrix.dim)
    )


def _random_class_matrix(rng: random.Random):
    """A small matrix over CLASS_RADICANDS, often repaired to make rows 0
    and 1 orthogonal by choosing the entry of row 1 in their last shared
    column to cancel the other cross terms."""
    dim, count = rng.choice((2, 2, 3)), rng.randint(2, 6)
    rows = []
    for _ in range(dim):
        row = [cell(0, 0)] * count
        for c in range(count):
            if rng.random() < 0.7:
                row[c] = cell(rng.choice((-1, 1)), rng.choice(CLASS_RADICANDS))
        if all(sign == 0 for sign, _ in row):
            row[rng.randrange(count)] = cell(1, rng.choice(CLASS_RADICANDS))
        rows.append(row)
    shared = [c for c in range(count) if rows[0][c][0] and rows[1][c][0]]
    if len(shared) >= 2 and rng.random() < 0.8:
        last = shared[-1]
        rest = _canonical_sum(
            radical_product(RadicalScalar(*rows[0][c]), RadicalScalar(*rows[1][c]))
            for c in shared[:-1]
        )
        if len(rest) == 1:
            # make u * v = -coefficient * sqrt(square_free), u = rows[0][last]
            (square_free, coefficient), = rest.items()
            sign, radicand = rows[0][last]
            target = -1 if coefficient > 0 else 1
            rows[1][last] = cell(target * sign, coefficient**2 * square_free / radicand)
    return matrix_from_grid(rows)


def test_exact_verdicts_agree_with_a_factoring_oracle():
    rng = random.Random(4242)
    verdicts = []
    for _ in range(2500):
        matrix = _random_class_matrix(rng)
        exact = verify_matrix(matrix).orthogonal
        approx = verify_matrix(matrix, tol=1e-10).orthogonal
        assert exact == _oracle_exact(matrix), matrix.entries
        assert approx == _oracle_float(matrix), matrix.entries
        assert approx == exact, matrix.entries
        verdicts.append(exact)
    # both verdicts are well represented
    assert 300 <= sum(verdicts) <= 2200


SQUARE_FREE = (1, 2, 3, 6, 10)


def _random_two_row_grid(rng: random.Random):
    """Two rows of (sign, radicand) cells over the radicands c^2 f / d^2.
    Often the cell of row 1 in the last shared column is repaired to
    cancel the other cross terms."""
    count = rng.randint(2, 6)
    rows = []  # cells (s, c, d, f), meaning s * sqrt(c^2 f / d^2), or None
    for _ in range(2):
        row = [None] * count
        while all(value is None for value in row):
            row = [
                (rng.choice((-1, 1)), rng.randint(1, 12), rng.randint(1, 12), rng.choice(SQUARE_FREE))
                if rng.random() < 0.8
                else None
                for _ in range(count)
            ]
        rows.append(row)
    grid = [
        [(0, 0) if v is None else (v[0], F(v[1] ** 2 * v[3], v[2] ** 2)) for v in row]
        for row in rows
    ]
    shared = [c for c in range(count) if rows[0][c] and rows[1][c]]
    if len(shared) >= 2 and rng.random() < 0.8:
        # the cross term of (s, c, d, f) and (t, e, h, k), with g = gcd(f, k),
        # is s*t*c*e*g/(d*h) * sqrt(f*k/g^2), and f*k/g^2 is square-free
        rest: dict[int, Fraction] = {}
        for col in shared[:-1]:
            (s, c, d, f), (t, e, h, k) = rows[0][col], rows[1][col]
            g = math.gcd(f, k)
            square_free = f * k // (g * g)
            rest[square_free] = rest.get(square_free, F(0)) + F(s * t * c * e * g, d * h)
        rest = {key: value for key, value in rest.items() if value}
        if len(rest) == 1:
            # make u * v = -coefficient * sqrt(square_free), u the cell of row 0
            ((square_free, coefficient),) = rest.items()
            sign, radicand = grid[0][shared[-1]]
            target = -1 if coefficient > 0 else 1
            grid[1][shared[-1]] = (target * sign, coefficient**2 * square_free / radicand)
    return grid


def test_exact_verdicts_agree_with_the_fraction_square_classes():
    rng = random.Random(1313)
    verdicts = []
    for _ in range(2000):
        grid_rows = _random_two_row_grid(rng)
        terms: dict[Fraction, int] = {}
        for (s, a), (t, b) in zip(*grid_rows):
            if s and t:
                terms[a * b] = terms.get(a * b, 0) + s * t
        exact = verify_matrix(matrix_from_grid(grid_rows)).orthogonal
        assert exact == reference_radical_sum_is_zero(terms), grid_rows
        verdicts.append(exact)
    assert 400 <= sum(verdicts) <= 1600, sum(verdicts)


def test_square_sums_match_fraction_sums():
    rng = random.Random(2024)
    built = 0
    for _ in range(2000):
        spec = random_mixed_spec(rng)
        if not check_ready(spec).ready:
            continue
        matrix = pnstc(spec)
        rows = [F(0)] * matrix.dim
        cols = [F(0)] * matrix.count
        for r, c, value in matrix.entries:
            rows[r] += value.radicand
            cols[c] += value.radicand
        pairs = [[(v.numerator, v.denominator) for v in sums] for sums in (rows, cols)]
        assert _square_sums(matrix) == tuple(pairs)
        built += 1
    assert built > 500
