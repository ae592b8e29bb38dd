"""Exact feasibility tests for ordered eigenvalue / squared-norm sequences.

One scan (:func:`_scan`) gives, for each row k, the forced cut m_k, the
unique index with ``A(m_k) <= L(k) < A(m_k + 1)`` for the prefix sums A
and L of the squared norms and the eigenvalues, and the deficit
``d_k = L(k) - A(m_k)``.  The ordering is ready iff every row with
d_k > 0 has

* ``m_(k+1) >= m_k + 2``: a block column m_k + 2 exists and the block's
  second-row mass fits eigenvalue k+1 (else ``GAP_II``), and
* ``a_(m_k + 2)^2 >= d_k``: that column carries the deficit (else
  ``NORM_BOUND_II``).

:func:`_stuck` tests one row.  :func:`check_ready` reads the cuts and
the first stuck row in one pass; :func:`_cursor`, which
:func:`~spectral_tetris.construct.pnstc` builds from, places singletons
up to m_k and a 2x2 block at m_k, whose first-row mass d_k it yields as
the int pair ``(r, den)``.  Consecutive cuts may coincide when a row
completes exactly and the next opens with an immediate block.

The scan runs on ints: it reads the reduced ``(num, den)`` pairs that
:class:`FrameSpec` makes once, and d_k = r / den is summed by
``add_ratios``, so den is the denominator of d_k, never a product over
the whole spec.
Fraction prefix sums of 2/p over the first 6,000 primes carry the
product of the primes.  A lift over the lcm of all denominators fails
too: with the squared norms 1/p, (p-1)/p for 20,000 primes p near 10^5
every row sums to an integer, yet that lcm has about 340,000 bits.

Also here: the quick sufficient screens for sorted sequences, the
constant-spectrum (tight) and unit-norm reformulations, and the
majorization existence test (which is constructor-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ConstructionStuckError, NotSortedError, TraceMismatchError
from .scalar import ZERO, add_ratios, as_rational, describe_rational, exact_sum, sum_ratios

Ratio = tuple[int, int]  # (num, den), reduced, den > 0


def _rational_tuple(values) -> tuple[Fraction, ...]:
    """The values as a tuple of Fractions; when every one already is a
    Fraction, as ``formats`` gives them, the tuple holds them as they are."""
    values = tuple(values)
    if set(map(type, values)) == {Fraction}:
        return values
    return tuple(map(as_rational, values))


def _ratio_tuple(values: tuple[Fraction, ...]) -> tuple[Ratio, ...]:
    """Each value's ``(numerator, denominator)``, one pair per distinct value.

    A run of one Fraction object, as a unit spec or ``formats`` gives for
    a repeated literal, is read once: the properties run in Python.
    """
    shared: dict[Ratio, Ratio] = {}
    pairs = []
    last = pair = None
    for value in values:
        if value is not last:
            last, pair = value, (value.numerator, value.denominator)
            pair = shared.setdefault(pair, pair)
        pairs.append(pair)
    return tuple(pairs)


@dataclass(frozen=True)
class FrameSpec:
    """Target eigenvalues (length N) and squared norms (length M).

    All values must be positive rationals.  The trace identity
    ``sum(norms_sq) == sum(eigenvalues)`` is *not* enforced here so that
    the readiness check can report a mismatch as a verdict; operations
    that need it check it themselves.

    The package reads the values as reduced int pairs, made once here:
    ``_eigen_pairs`` and ``_norm_pairs``, with one shared pair per
    distinct value.  They are plain attributes, not fields, so equality,
    hashing and ``repr`` see the two tuples of Fractions alone.  This is
    the one place a spec is checked and taken apart: the spec file parser
    and the search build their specs here too.
    """

    eigenvalues: tuple[Fraction, ...]
    norms_sq: tuple[Fraction, ...]

    def __post_init__(self):
        eigenvalues, norms_sq = _rational_tuple(self.eigenvalues), _rational_tuple(self.norms_sq)
        eigen_pairs, norm_pairs = _ratio_tuple(eigenvalues), _ratio_tuple(norms_sq)
        # every den is positive, so the least pair has the least numerator
        _check_least(min(eigen_pairs, default=(None,))[0], min(norm_pairs, default=(None,))[0])
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "norms_sq", norms_sq)
        object.__setattr__(self, "_eigen_pairs", eigen_pairs)
        object.__setattr__(self, "_norm_pairs", norm_pairs)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def count(self) -> int:
        return len(self.norms_sq)


def _check_least(eigen_least, norm_least) -> None:
    """The public constructor's checks, on the least eigenvalue and the
    least squared norm, or on their numerators; None stands for an empty
    side."""
    if eigen_least is None or norm_least is None:
        raise ValueError("eigenvalues and squared norms must be nonempty")
    if eigen_least <= 0:
        raise ValueError("eigenvalues must be positive")
    if norm_least <= 0:
        raise ValueError("squared norms must be positive")


class Violation(Enum):
    TRACE_MISMATCH = "trace-mismatch"
    GAP_II = "gap-ii"
    NORM_BOUND_II = "norm-bound-ii"


@dataclass(frozen=True)
class Partition:
    """Cut indices m_1 <= ... <= m_N = M (counts of consumed columns), as a tuple."""

    cuts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        if any(b < a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cuts must be nondecreasing")
        if self.cuts and self.cuts[0] < 0:
            raise ValueError("cuts must be nonnegative")


@dataclass(frozen=True)
class ReadinessReport:
    """Verdict plus the forced partition and the first violated condition.

    ``violation`` is ``(k, condition)`` with k the 1-based row index
    (k = 0 for a trace mismatch, which is not row-specific).
    """

    ready: bool
    partition: Partition | None
    violation: tuple[int, Violation] | None
    detail: str = ""


def _require_trace(spec: FrameSpec) -> None:
    norms_total, eigenvalues_total = sum_ratios(spec._norm_pairs), sum_ratios(spec._eigen_pairs)
    if norms_total != eigenvalues_total:
        raise TraceMismatchError(
            f"squared norms sum to {describe_rational(Fraction(*norms_total))}, "
            f"eigenvalues to {describe_rational(Fraction(*eigenvalues_total))}"
        )


def _scan(spec: FrameSpec):
    """Yield ``(m_k, r, den)`` per row: the forced cut and d_k = r / den,
    reduced (:func:`~spectral_tetris.scalar.add_ratios`).  Needs the
    trace identity for the last cut to be M.
    """
    norms, count = spec._norm_pairs, spec.count
    col, r, den = 0, 0, 1
    for eigenvalue, eigenvalue_den in spec._eigen_pairs:
        r, den = add_ratios(r, den, eigenvalue, eigenvalue_den)
        while col < count:
            num, norm_den = norms[col]
            if num * den > r * norm_den:
                break
            r, den = add_ratios(r, den, -num, norm_den)
            col += 1
        yield col, r, den


def _stuck(spec: FrameSpec, row: int, cut: int, r: int, den: int) -> ConstructionStuckError | None:
    """The error at 0-based ``row`` with cut ``cut`` and deficit r / den > 0,
    or None when its block fits; ``violation`` is (row + 1, condition)."""
    norms, count, k = spec._norm_pairs, spec.count, row + 1
    if cut + 1 >= count:
        detail = (
            f"row {k} needs a block over columns {cut + 1}, {cut + 2} "
            f"but only {count} columns exist"
        )
        return ConstructionStuckError(detail, row=row, col=cut, violation=(k, Violation.GAP_II))
    partner, partner_den = norms[cut + 1]
    if partner * den < r * partner_den:
        deficit = describe_rational(Fraction(r, den))
        norm = describe_rational(spec.norms_sq[cut + 1])
        detail = f"column {cut + 2} squared norm {norm} < deficit {deficit}"
        return ConstructionStuckError(
            detail, row=row, col=cut, violation=(k, Violation.NORM_BOUND_II)
        )
    carry = add_ratios(*norms[cut], partner, partner_den)
    carry, carry_den = add_ratios(*carry, -r, den)
    bound, bound_den = spec._eigen_pairs[k]
    if carry * bound_den <= bound * carry_den:
        return None
    detail = (
        f"the block over columns {cut + 1}, {cut + 2} puts mass "
        f"{describe_rational(Fraction(carry, carry_den))} into row {k + 1}, "
        f"whose eigenvalue is {describe_rational(spec.eigenvalues[k])}"
    )
    return ConstructionStuckError(detail, row=row, col=cut, violation=(k, Violation.GAP_II))


def forced_partition(spec: FrameSpec) -> Partition:
    """The cuts m_k; raises TraceMismatchError without the trace identity."""
    _require_trace(spec)
    return Partition(cut for cut, _, _ in _scan(spec))


def _cursor(spec: FrameSpec):
    """Walk the Spectral Tetris cursor over this exact ordering.

    Each row takes singleton columns while they fit its residual mass; a
    positive remainder is closed by a 2x2 block over this row and the
    next.  Yields ``(row, col, None)`` for a singleton at (row, col) and
    ``(row, col, (r, den))`` for a block over rows row, row+1 and columns
    col, col+1 whose first row squares to x = r / den, reduced with
    den > 0.  Where it sticks it raises the error of :func:`_stuck`.
    Requires the trace identity.
    """
    start = 0
    for row, (cut, r, den) in enumerate(_scan(spec)):
        for col in range(start, cut):
            yield row, col, None
        start = cut
        if r:
            stuck = _stuck(spec, row, cut, r, den)
            if stuck is not None:
                raise stuck
            yield row, cut, (r, den)
            start = cut + 2


def check_ready(spec: FrameSpec) -> ReadinessReport:
    """Decide whether the constructor succeeds on this exact ordering, in
    one scan: the partition is read past a stuck row."""
    try:
        _require_trace(spec)
    except TraceMismatchError as exc:
        violation = (0, Violation.TRACE_MISMATCH)
        return ReadinessReport(ready=False, partition=None, violation=violation, detail=str(exc))
    cuts, stuck = [], None
    for row, (cut, r, den) in enumerate(_scan(spec)):
        cuts.append(cut)
        if r and stuck is None:
            stuck = _stuck(spec, row, cut, r, den)
    partition = Partition(cuts)
    if stuck is None:
        return ReadinessReport(ready=True, partition=partition, violation=None)
    return ReadinessReport(
        ready=False, partition=partition, violation=stuck.violation, detail=str(stuck)
    )


def _require_sorted(values: tuple[Fraction, ...], *, increasing: bool, what: str) -> None:
    pairs = zip(values, values[1:])
    ok = all(a <= b for a, b in pairs) if increasing else all(a >= b for a, b in pairs)
    if not ok:
        direction = "increasing" if increasing else "decreasing"
        raise NotSortedError(f"{what} must be sorted {direction}")


def easy_sufficient(spec: FrameSpec) -> bool:
    """Quick screen for sorted-increasing sequences.

    True iff the trace identity holds and, for each l = 0..N-1,
    ``a_(M-2l-1)^2 + a_(M-2l)^2 <= lambda_(N-l)``.  When only the lower
    index falls off the front the surviving single term must still fit;
    the condition is skipped only when both indices do.  True implies
    :func:`check_ready` accepts the ordering.
    """
    _require_sorted(spec.eigenvalues, increasing=True, what="eigenvalues")
    _require_sorted(spec.norms_sq, increasing=True, what="squared norms")
    if sum_ratios(spec._norm_pairs) != sum_ratios(spec._eigen_pairs):
        return False
    m_count, dim = spec.count, spec.dim
    for ell in range(dim):
        hi = m_count - 2 * ell  # 1-based index of the larger term
        if hi < 1:
            continue
        pair = spec.norms_sq[hi - 1]
        if hi - 1 >= 1:
            pair += spec.norms_sq[hi - 2]
        if pair > spec.eigenvalues[dim - ell - 1]:
            return False
    return True


def tight_bound(norms_sq, dim: int) -> Fraction:
    """The tight frame bound: total squared norm divided by the dimension.
    An empty or non-positive list is refused as :class:`FrameSpec` refuses it."""
    values = _rational_tuple(norms_sq)
    if dim < 1:
        raise ValueError("dimension must be positive")
    _check_least(dim, min(values, default=None))  # dim, checked above, stands for the eigenvalues
    return exact_sum(values) / dim


def tight_sufficient(norms_sq, dim: int) -> bool:
    """Pair screen for sorted-decreasing norms: a1^2 + a2^2 <= tight bound.

    True guarantees that the *increasing* ordering of the same norms is
    ready: there every adjacent pair sums to at most a1^2 + a2^2 and every
    single term to at most a1^2, so :func:`easy_sufficient` holds on it.
    The decreasing ordering itself may still fail, but only by
    ``NORM_BOUND_II``: a row with positive deficit always has two columns
    left and the block's second-row mass stays below the bound, so
    ``GAP_II`` cannot occur.  The screen is therefore not exact for the
    ordering it is given; see ``tests/test_readiness.py`` for a pinned
    ordering it accepts that the exact scan rejects.
    """
    values = _rational_tuple(norms_sq)
    _require_sorted(values, increasing=False, what="squared norms")
    bound = tight_bound(values, dim)
    pair = values[0] + (values[1] if len(values) > 1 else ZERO)
    return pair <= bound


def tight_ready(norms_sq, dim: int) -> ReadinessReport:
    """Exact readiness of an ordering against the constant tight spectrum."""
    values = _rational_tuple(norms_sq)
    bound = tight_bound(values, dim)
    return check_ready(FrameSpec(eigenvalues=(bound,) * dim, norms_sq=values))


def _unit_spec(eigenvalues, count: int) -> FrameSpec:
    """The spec with all squared norms 1; requires ``sum(eigenvalues) == count``."""
    values = _rational_tuple(eigenvalues)
    total = exact_sum(values)
    if total != count:
        raise TraceMismatchError(
            f"eigenvalues sum to {describe_rational(total)} "
            f"but {count} unit vectors were requested"
        )
    return FrameSpec(eigenvalues=values, norms_sq=(Fraction(1),) * count)


def unit_ready(eigenvalues, count: int) -> ReadinessReport:
    """Readiness with all squared norms equal to 1.

    Requires ``sum(eigenvalues) == count``.  With unit norms the block
    norm bound is automatic (every deficit is < 1), so only the gap
    condition can fail.
    """
    return check_ready(_unit_spec(eigenvalues, count))


def majorizes(eigenvalues, norms_sq) -> bool:
    """Existence test for *some* frame with these parameters.

    True iff, with both sequences sorted decreasing, every partial sum of
    the eigenvalues dominates the corresponding partial sum of the squared
    norms and the totals agree.  Independent of any particular
    construction.  The partial sums are reduced ``(num, den)`` int pairs
    (:func:`~spectral_tetris.scalar.add_ratios`), compared by
    cross-multiplying.  The values are read through :class:`FrameSpec`,
    so an empty or non-positive side raises its ValueError.
    """
    spec = FrameSpec(eigenvalues, norms_sq)
    eig = [(v.numerator, v.denominator) for v in sorted(spec.eigenvalues, reverse=True)]
    nsq = [(v.numerator, v.denominator) for v in sorted(spec.norms_sq, reverse=True)]
    if sum_ratios(eig) != sum_ratios(nsq):  # reduced pairs: equal iff the values are
        return False
    return _dominates(eig, nsq)


def _dominates(eig_pairs, norm_pairs) -> bool:
    """The prefix-sum half of :func:`majorizes`: True iff every partial
    sum of ``eig_pairs`` is at least the sum of as many of ``norm_pairs``.
    Both are reduced ``(num, den)`` pairs, sorted decreasing, and the
    caller has checked that their sums are equal."""
    eig_acc = norm_acc = (0, 1)
    for n, value in enumerate(eig_pairs):
        eig_acc = add_ratios(*eig_acc, *value)
        if n < len(norm_pairs):
            norm_acc = add_ratios(*norm_acc, *norm_pairs[n])
        if norm_acc[0] * eig_acc[1] > eig_acc[0] * norm_acc[1]:
            return False
    return True
