"""The constructors.

``pnstc`` builds an N x M synthesis matrix with prescribed row masses
(eigenvalues of the frame operator) and column masses (squared vector
norms).  It follows the readiness cursor (``readiness._cursor``): each
row is filled with singleton columns while they fit and closed with a
2x2 block (spanning this row and the next) when the next column no
longer does.  ``pnstc`` only turns the cursor's placements into entries,
so it succeeds exactly when :func:`~spectral_tetris.readiness.check_ready`
accepts the ordering, and otherwise stops with the same violation.

The cursor gives a block's first-row mass as an int pair, and a block is
fixed by that mass and its two columns' squared norms.  ``pnstc`` builds
each distinct block once (:func:`~spectral_tetris.blocks.build_block`)
and reuses its cells: equal-norm and tight specs repeat the same few
blocks, e.g. at most L - 1 distinct ones for unit norms at redundancy
(2L-1)/L.

Every unit is a singleton column or a block over two adjacent rows and
columns, so a :class:`BlockRecord`'s spans are index pairs.  The public
:class:`SynthesisMatrix` and :class:`BlockRecord` constructors check what
they are given.  ``pnstc`` builds both through private paths
(:func:`_synthesis_matrix`, :func:`_block_record`) that check nothing: the
cursor places each column once, in (col, row) order, so the entries are
already sorted with no cell twice, and only a degenerate block, when one
was built, has zero cells to drop.  ``formats`` reads a matrix file's
block log through :func:`_block_record` too, after checking that each
span is two ints.

``stc`` is the unit-norm specialization; ``unit_tight`` the unit-norm
tight constructor with its closed-form feasibility test (redundancy >= 2,
or reduced redundancy of the form (2L-1)/L); ``equal_norm_frame`` runs
``pnstc`` on the spec of r^2 equal norms that realizes an arbitrary
decreasing spectrum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter

from .blocks import build_block
from .errors import (
    DegenerateSpectrumError,
    InfeasibleError,
    InvalidDimsError,
    OutOfRangeError,
)
from .readiness import (
    FrameSpec,
    _cursor,
    _rational_tuple,
    _require_sorted,
    _require_trace,
    _unit_spec,
)
from .scalar import RadicalScalar, _radical, exact_sum


class BlockKind(str, Enum):
    SINGLETON = "singleton"
    BLOCK_2X2 = "block-2x2"
    DEGENERATE_BLOCK = "degenerate-block"


@dataclass(frozen=True)
class BlockRecord:
    """One placed unit: a singleton column or a 2x2 block.

    ``rows``/``cols`` are inclusive 0-based spans, each a pair (first,
    last); every nonzero entry of the matrix belongs to exactly one
    record.  The constructor keeps either span given as any iterable as a
    tuple, and raises ValueError unless both are pairs of ints (``bool``
    and ``float`` are not ints here, as in the matrix file loader).
    """

    kind: BlockKind
    rows: tuple[int, int]
    cols: tuple[int, int]

    def __post_init__(self):
        rows, cols = tuple(self.rows), tuple(self.cols)
        if len(rows) != 2 or len(cols) != 2 or any(type(i) is not int for i in rows + cols):
            raise ValueError(f"block spans must be index pairs, got rows {rows}, cols {cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)


# The private constructors set the fields past the checks of
# ``__post_init__`` with the setter a frozen dataclass's ``__init__`` uses;
# writing ``__dict__`` instead would give every instance a dict of its own.
_new, _set = object.__new__, object.__setattr__


def _block_record(kind: BlockKind, rows: tuple[int, int], cols: tuple[int, int]) -> BlockRecord:
    """A :class:`BlockRecord` of spans that are tuples already."""
    record = _new(BlockRecord)
    _set(record, "kind", kind)
    _set(record, "rows", rows)
    _set(record, "cols", cols)
    return record


Entry = tuple[int, int, RadicalScalar]  # (row, col, value)

_column_major = itemgetter(1, 0)


@dataclass(frozen=True)
class SynthesisMatrix:
    """Sparse N x M matrix of radical entries plus its construction log.

    Value object: ``entries`` is a tuple of ``(row, col, value)`` sorted
    by (col, row), the export order, with no zero values; instances are
    hashable and compare by value.  The constructor takes either field as
    any iterable, entries in any order, each entry as any iterable of
    ``(row, col, value)``, and keeps only tuples.  It raises ValueError on
    a dimension below 1, a cell outside the matrix or a cell given twice
    (zero values included).
    """

    dim: int
    count: int
    entries: tuple[Entry, ...]
    block_log: tuple[BlockRecord, ...]

    def __post_init__(self):
        dim, count = self.dim, self.count
        if dim < 1 or count < 1:
            raise ValueError(f"matrix dimensions must be positive, got {dim}x{count}")
        ordered = sorted(map(tuple, self.entries), key=_column_major)
        previous = None
        for row, col, _ in ordered:
            if not (0 <= row < dim and 0 <= col < count):
                raise ValueError(f"entry {(row, col)} lies outside the {dim}x{count} matrix")
            cell = (row, col)
            if cell == previous:
                raise ValueError(f"entry {cell} appears twice")
            previous = cell
        kept = tuple(entry for entry in ordered if entry[2].sign)
        object.__setattr__(self, "entries", kept)
        object.__setattr__(self, "block_log", tuple(self.block_log))

    def entry(self, row: int, col: int) -> RadicalScalar:
        i = bisect_left(self.entries, (col, row), key=_column_major)
        if i < len(self.entries) and _column_major(self.entries[i]) == (col, row):
            return self.entries[i][2]
        return RadicalScalar.zero()


def _synthesis_matrix(dim: int, count: int, entries: tuple, block_log: tuple) -> SynthesisMatrix:
    """A :class:`SynthesisMatrix` of entries already sorted by (col, row),
    inside the matrix, with no cell twice and no zero value."""
    matrix = _new(SynthesisMatrix)
    _set(matrix, "dim", dim)
    _set(matrix, "count", count)
    _set(matrix, "entries", entries)
    _set(matrix, "block_log", block_log)
    return matrix


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

    Raises TraceMismatchError when the mass totals differ.  When the
    ordering is not ready the cursor raises ConstructionStuckError, the
    failure :func:`check_ready` reports.
    """
    _require_trace(spec)
    norms, pairs = spec.norms_sq, spec._norm_pairs
    entries: list[Entry] = []
    log: list[BlockRecord] = []
    # One root per distinct squared norm and one block per distinct
    # (x, a1^2, a2^2), shared: values are immutable, and int pairs hash
    # far faster than Fractions.  A block is its cells in column order
    # and its kind.
    roots: dict[tuple[int, int], RadicalScalar] = {}
    blocks: dict[tuple, tuple] = {}
    degenerate = False
    for row, col, x in _cursor(spec):
        if x is None:
            pair = pairs[col]
            root = roots.get(pair)
            if root is None:
                root = roots[pair] = _radical(1, *pair)
            entries.append((row, col, root))
            log.append(_block_record(BlockKind.SINGLETON, (row, row), (col, col)))
            continue
        key = (x, pairs[col], pairs[col + 1])
        made = blocks.get(key)
        if made is None:
            block = build_block(Fraction(*x), norms[col], norms[col + 1])
            (top_left, top_right), (bottom_left, bottom_right) = block.entries
            degenerate |= block.degenerate
            kind = BlockKind.DEGENERATE_BLOCK if block.degenerate else BlockKind.BLOCK_2X2
            made = blocks[key] = (top_left, bottom_left, top_right, bottom_right, kind)
        top_left, bottom_left, top_right, bottom_right, kind = made
        entries += (
            (row, col, top_left),
            (row + 1, col, bottom_left),
            (row, col + 1, top_right),
            (row + 1, col + 1, bottom_right),
        )
        log.append(_block_record(kind, (row, row + 1), (col, col + 1)))
    if degenerate:  # a degenerate block's cells are the only ones that can be zero
        entries = [entry for entry in entries if entry[2].sign]
    return _synthesis_matrix(spec.dim, spec.count, tuple(entries), tuple(log))


def stc(eigenvalues, count: int) -> SynthesisMatrix:
    """Unit-norm specialization: all squared norms are 1."""
    return pnstc(_unit_spec(eigenvalues, count))


def _first_multiple_in_range(a: int, m: int, lo: int, hi: int) -> int | None:
    """Smallest x >= 0 with ``lo <= (a * x) % m <= hi``, or None.

    Needs 0 <= lo <= hi < m.  Euclid-style: when no multiple of a lies in
    [lo, hi], the answer x = ceil((lo + m*y) / a) comes from the smallest
    y >= 0 with ``(m * y) % a`` in [-hi % a, -lo % a], the same problem
    for (m mod a, a).  The frames are unwound in reverse; O(log m) steps.
    """
    frames = []
    while True:
        a %= m
        if lo == 0:
            x = 0
            break
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        frames.append((a, m, lo))
        a, m, lo, hi = m, a, -hi % a, -lo % a
    for a, m, lo in reversed(frames):
        x = -(-(lo + m * x) // a)
    return x


def k_inequality_scan(count: int, dim: int) -> int | None:
    """Smallest k in 1..N-1 whose non-integer multiple of the redundancy
    violates ``floor(k*r) <= (k+1)*r - 2``, or None.

    Only defined for redundancy strictly between 1 and 2; None means the
    unit-norm tight construction goes through.  With r = p/q in lowest
    terms and s = p - q, row k fails iff ``(k*s) % q`` lies in
    [1, q - s - 1]; that residue has period q <= N, so the first such k
    is found in O(log q) steps instead of a scan over the rows.
    """
    if not dim < count < 2 * dim:
        raise OutOfRangeError(
            f"redundancy {count}/{dim} is outside the open interval (1, 2)"
        )
    redundancy = Fraction(count, dim)
    q = redundancy.denominator
    s = redundancy.numerator - q
    if s == q - 1:  # r = (2q - 1)/q: the interval is empty
        return None
    return _first_multiple_in_range(s, q, 1, q - s - 1)


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


#: Largest frame ``equal_norm_frame`` builds, in vectors (r^2).  The
#: spread of the spectrum sets r, so the eigenvalues 10^12 and 1 would
#: ask for about 3 * 10^12 vectors; 10^5 take a few seconds and a few
#: hundred MB.
MAX_EQUAL_NORM_VECTORS = 10**5


def equal_norm_frame(
    eigenvalues, r_override: int | None = None
) -> tuple[int, FrameSpec, SynthesisMatrix]:
    """Equal-norm frame with a prescribed decreasing spectrum.

    Returns ``(r, spec, matrix)``: ``spec`` has the eigenvalues and r^2
    squared norms total/r^2, and ``matrix`` is ``pnstc(spec)``.  The
    minimal r makes every squared norm at most half the smallest
    eigenvalue and satisfies r^2 * (1 - lambda_1/total) >= 3; pass
    ``r_override`` to use a larger (or any) r instead -- construction
    fails safely if it is too small.  Raises ValueError, before building
    anything, when r^2 exceeds ``MAX_EQUAL_NORM_VECTORS``.
    """
    values = _rational_tuple(eigenvalues)
    if any(v <= 0 for v in values):
        raise ValueError("eigenvalues must be positive")
    if len(values) < 2:
        raise DegenerateSpectrumError("need at least two eigenvalues")
    _require_sorted(values, increasing=False, what="eigenvalues")
    total = exact_sum(values)
    epsilon = 1 - values[0] / total  # > 0: two or more eigenvalues are positive
    if r_override is not None:
        if r_override < 1:
            raise ValueError("r override must be a positive integer")
        r = r_override
    else:
        bound = max(2 * total / values[-1], 3 / epsilon)
        r = math.isqrt(math.ceil(bound) - 1) + 1  # the least r with r*r >= bound; r*r is an integer
    if r * r > MAX_EQUAL_NORM_VECTORS:
        raise ValueError(
            f"the equal-norm frame needs r^2 vectors with r = {r}, "
            f"more than the limit of {MAX_EQUAL_NORM_VECTORS}"
        )
    spec = FrameSpec(values, (total / (r * r),) * (r * r))
    return r, spec, pnstc(spec)
