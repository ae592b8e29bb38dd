"""The constructors.

``pnstc`` builds an N x M synthesis matrix with prescribed row masses
(eigenvalues of the frame operator) and column masses (squared vector
norms): a cursor sweeps left to right, filling each row with singleton
columns while they fit and closing it with a 2x2 block (spanning this row
and the next) when the next column no longer fits.  Feasibility is
re-derived on the fly -- each block is existence-checked and the next
row's residual must stay nonnegative -- so the constructor fails safely
without a prior readiness check, and succeeds exactly when
:func:`~spectral_tetris.readiness.check_ready` accepts the ordering.

``stc`` is the unit-norm specialization; ``unit_tight`` the unit-norm
tight constructor with its closed-form feasibility test (redundancy >= 2,
or reduced redundancy of the form (2L-1)/L); ``equal_norm_frame`` scales
a unit-norm construction to realize an arbitrary decreasing spectrum with
equal-norm vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .blocks import BlockSpec, build_block
from .errors import (
    BlockInfeasibleError,
    ConstructionStuckError,
    DegenerateSpectrumError,
    InfeasibleError,
    InvalidDimsError,
    NotSortedError,
    OutOfRangeError,
    TraceMismatchError,
)
from .readiness import FrameSpec, _rational_tuple
from .scalar import ZERO, RadicalScalar


class BlockKind(str, Enum):
    SINGLETON = "singleton"
    BLOCK_2X2 = "block-2x2"
    DEGENERATE_BLOCK = "degenerate-block"


@dataclass(frozen=True)
class BlockRecord:
    """One placed unit: a singleton column or a 2x2 block.

    ``rows``/``cols`` are inclusive 0-based spans; every nonzero entry of
    the matrix belongs to exactly one record.
    """

    kind: BlockKind
    rows: tuple[int, int]
    cols: tuple[int, int]


@dataclass(frozen=True, eq=True)
class SynthesisMatrix:
    """Sparse N x M matrix of radical entries plus its construction log.

    Value object: the entry map is never mutated after construction, so
    instances are safe to share across threads.
    """

    dim: int
    count: int
    entries: dict[tuple[int, int], RadicalScalar]
    block_log: tuple[BlockRecord, ...]

    def entry(self, row: int, col: int) -> RadicalScalar:
        return self.entries.get((row, col), RadicalScalar.zero())

    def nonzero_items(self) -> list[tuple[tuple[int, int], RadicalScalar]]:
        """Entries sorted by (col, row), the canonical export order."""
        return sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def to_float_rows(self) -> list[list[float]]:
        dense = [[0.0] * self.count for _ in range(self.dim)]
        for (r, c), value in self.entries.items():
            dense[r][c] = float(value)
        return dense

    def scaled_by_sqrt(self, factor_sq: Fraction) -> "SynthesisMatrix":
        """Multiply every entry by sqrt(factor_sq) > 0; log is unchanged."""
        if factor_sq <= 0:
            raise ValueError("scale factor must be positive")
        scale = RadicalScalar.sqrt(factor_sq)
        return SynthesisMatrix(
            dim=self.dim,
            count=self.count,
            entries={key: value * scale for key, value in self.entries.items()},
            block_log=self.block_log,
        )


@dataclass(frozen=True)
class UnitTightVerdict:
    """Closed-form feasibility of a unit-norm tight frame.

    Feasible iff the redundancy count/dim is >= 2 or reduces to
    (2L-1)/L; ``witness_l`` carries L, ``failing_k`` the smallest row
    index violating the floor inequality when infeasible.
    """

    feasible: bool
    reduced: tuple[int, int]
    witness_l: int | None
    failing_k: int | None


def pnstc(spec: FrameSpec) -> SynthesisMatrix:
    """Construct the synthesis matrix for this exact ordering.

    Raises TraceMismatchError when the mass totals differ and
    ConstructionStuckError (with the cursor position and reason) when the
    ordering is not ready.
    """
    if spec.trace_gap() != 0:
        raise TraceMismatchError(
            f"squared norms sum to {sum(spec.norms_sq)}, "
            f"eigenvalues to {sum(spec.eigenvalues)}"
        )
    dim, count = spec.dim, spec.count
    norms = spec.norms_sq
    entries: dict[tuple[int, int], RadicalScalar] = {}
    log: list[BlockRecord] = []
    col = 0
    carry = ZERO  # mass a block already placed into the upcoming row
    for row in range(dim):
        residual = spec.eigenvalues[row] - carry
        carry = ZERO
        if residual < 0:
            raise ConstructionStuckError(
                f"row {row} receives {-residual} more block mass than its eigenvalue",
                row=row,
                col=col,
                reason="row-overfull",
            )
        while residual > 0:
            if col >= count:
                raise ConstructionStuckError(
                    f"row {row} still needs mass {residual} but all columns are used",
                    row=row,
                    col=col,
                    reason="missing-column",
                )
            if norms[col] <= residual:
                entries[(row, col)] = RadicalScalar.sqrt(norms[col])
                log.append(BlockRecord(BlockKind.SINGLETON, (row, row), (col, col)))
                residual -= norms[col]
                col += 1
                continue
            # next column no longer fits: close the row with a 2x2 block
            if col + 1 >= count:
                raise ConstructionStuckError(
                    f"row {row} needs a block over columns {col}, {col + 1} "
                    f"but only {count} columns exist",
                    row=row,
                    col=col,
                    reason="missing-column",
                )
            if row + 1 >= dim:
                raise ConstructionStuckError(
                    f"last row needs a block spilling into row {row + 1}",
                    row=row,
                    col=col,
                    reason="missing-row",
                )
            block_spec = BlockSpec(x=residual, a1_sq=norms[col], a2_sq=norms[col + 1])
            try:
                block = build_block(block_spec)
            except BlockInfeasibleError as exc:
                raise ConstructionStuckError(
                    f"no block with row mass {residual} and column masses "
                    f"{norms[col]}, {norms[col + 1]} at row {row}: {exc}",
                    row=row,
                    col=col,
                    reason="block-infeasible",
                ) from exc
            for dr in (0, 1):
                for dc in (0, 1):
                    cell = block.entries[dr][dc]
                    if not cell.is_zero():
                        entries[(row + dr, col + dc)] = cell
            kind = BlockKind.DEGENERATE_BLOCK if block.degenerate else BlockKind.BLOCK_2X2
            log.append(BlockRecord(kind, (row, row + 1), (col, col + 1)))
            carry = block_spec.y
            residual = ZERO
            col += 2
    if carry != 0:  # unreachable: a block always has a next row (guarded above)
        raise ConstructionStuckError(
            "block mass left over after the last row",
            row=dim,
            col=col,
            reason="row-overfull",
        )
    if col != count:  # unreachable once the trace identity holds
        raise ConstructionStuckError(
            f"{count - col} columns left unplaced",
            row=dim,
            col=col,
            reason="leftover-columns",
        )
    return SynthesisMatrix(dim=dim, count=count, entries=entries, block_log=tuple(log))


def stc(eigenvalues, count: int) -> SynthesisMatrix:
    """Unit-norm specialization: all squared norms are 1."""
    values = _rational_tuple(eigenvalues)
    if sum(values, ZERO) != count:
        raise TraceMismatchError(
            f"eigenvalues sum to {sum(values)} but {count} unit vectors were requested"
        )
    return pnstc(FrameSpec(eigenvalues=values, norms_sq=(Fraction(1),) * count))


def k_inequality_scan(count: int, dim: int) -> int | None:
    """Smallest k in 1..N-1 whose non-integer multiple of the redundancy
    violates ``floor(k*r) <= (k+1)*r - 2``, or None.

    Only defined for redundancy strictly between 1 and 2; None means the
    unit-norm tight construction goes through.
    """
    if not dim < count < 2 * dim:
        raise OutOfRangeError(
            f"redundancy {count}/{dim} is outside the open interval (1, 2)"
        )
    redundancy = Fraction(count, dim)
    for k in range(1, dim):
        k_mass = k * redundancy
        if k_mass.denominator == 1:
            continue
        if math.floor(k_mass) > (k + 1) * redundancy - 2:
            return k
    return None


def unit_tight_feasible(count: int, dim: int) -> UnitTightVerdict:
    """Closed-form decision for unit-norm tight frames of count vectors."""
    if dim < 1 or count < dim:
        raise InvalidDimsError(
            f"need count >= dim >= 1, got count={count}, dim={dim}"
        )
    redundancy = Fraction(count, dim)
    reduced = (redundancy.numerator, redundancy.denominator)
    if redundancy >= 2:
        return UnitTightVerdict(feasible=True, reduced=reduced, witness_l=None, failing_k=None)
    num, den = reduced
    if num == 2 * den - 1:
        return UnitTightVerdict(feasible=True, reduced=reduced, witness_l=den, failing_k=None)
    failing = k_inequality_scan(count, dim)
    return UnitTightVerdict(feasible=False, reduced=reduced, witness_l=None, failing_k=failing)


def unit_tight(count: int, dim: int) -> SynthesisMatrix:
    """Unit-norm tight frame: constant spectrum count/dim.

    When gcd(count, dim) = P > 1 the cursor completes rows exactly at
    every multiple of dim/P, so the output is automatically block-diagonal
    with P copies of the primitive matrix.
    """
    verdict = unit_tight_feasible(count, dim)
    if not verdict.feasible:
        raise InfeasibleError(
            f"no unit-norm tight frame of {count} vectors in dimension {dim}: "
            f"reduced redundancy {verdict.reduced[0]}/{verdict.reduced[1]} "
            f"(first failing row index {verdict.failing_k})"
        )
    return stc((Fraction(count, dim),) * dim, count)


def _min_integer_sqrt_at_least(bound: Fraction) -> int:
    """Smallest positive integer r with r*r >= bound."""
    if bound <= 1:
        return 1
    r = math.isqrt(bound.numerator // bound.denominator)
    while r * r < bound:
        r += 1
    return r


def equal_norm_frame(eigenvalues, r_override: int | None = None) -> tuple[int, SynthesisMatrix]:
    """Equal-norm frame with a prescribed decreasing spectrum.

    Scales the spectrum by r^2/total so the smallest scaled eigenvalue is
    at least 2, builds the unit-norm frame with r^2 vectors, and scales
    all entries back by sqrt(total)/r.  The minimal r also satisfies
    r^2 * (1 - lambda_1/total) >= 3; pass ``r_override`` to use a larger
    (or any) r instead -- construction fails safely if it is too small.
    """
    values = _rational_tuple(eigenvalues)
    if any(v <= 0 for v in values):
        raise ValueError("eigenvalues must be positive")
    if len(values) < 2:
        raise DegenerateSpectrumError("need at least two eigenvalues")
    if any(a < b for a, b in zip(values, values[1:])):
        raise NotSortedError("eigenvalues must be sorted decreasing")
    total = sum(values, ZERO)
    epsilon = 1 - values[0] / total
    if epsilon == 0:
        raise DegenerateSpectrumError("largest eigenvalue equals the total mass")
    if r_override is not None:
        if r_override < 1:
            raise ValueError("r override must be a positive integer")
        r = r_override
    else:
        r = _min_integer_sqrt_at_least(max(2 * total / values[-1], 3 / epsilon))
    scaled = tuple(Fraction(r * r) / total * v for v in values)
    unit_matrix = stc(scaled, r * r)
    return r, unit_matrix.scaled_by_sqrt(total / (r * r))
