"""Search for ready orderings of eigenvalue and norm multisets.

The constructor's run is fully determined by the pair of orderings, so
the search enumerates orderings directly by simulating the cursor: within
a row, a remaining norm with mass <= the residual may be placed as a
singleton; a larger one opens a 2x2 block whose partner must carry at
least the residual; the block's second-row mass is charged against the
next eigenvalue.  A partial assignment is abandoned the moment any of
those constraints fails, which decides whole families of orderings at
once.  Values are drawn per distinct magnitude, so permutations that only
swap equal values are enumerated once.

Three cheap heuristic orderings are tried before the exhaustive walk:
norms decreasing with eigenvalues increasing, both decreasing, and both
increasing.  The walk itself is budgeted by node count (deterministic,
unlike wall time).

Many prefixes reach the same state: the same values placed in another
order.  A state is fixed by the remaining multiplicities of each norm
and eigenvalue alone.  The two sums are equal, so the remaining norm
mass minus the remaining eigenvalue mass is the residual of the open
row (positive) or minus the carry into the next row (zero or negative).
The subtree below a state depends on nothing else, so a state whose
subtree was walked to the end with no completion is dead wherever it is
reached again.  The walk keeps these dead states in a set that lives for
one call and skips them.  Completions, duplicates included, are what
tell a dead subtree from a live one.  A walk stopped by the budget or the
result limit adds nothing.  A skipped subtree holds no completion, so the
walk meets the same completions in the same order as without the set.
Only the node count drops.  The node is charged before the lookup, so
counts stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .readiness import FrameSpec, check_ready
from .scalar import ZERO, as_rational

DEFAULT_BUDGET = 1_000_000
DEFAULT_MAX_RESULTS = 16

Ordering = tuple[Fraction, ...]
OrderingPair = tuple[Ordering, Ordering]  # (norms_sq, eigenvalues)


@dataclass(frozen=True)
class SearchRequest:
    """Multisets to order, with result and work limits."""

    norms_sq: tuple[Fraction, ...]
    eigenvalues: tuple[Fraction, ...]
    max_results: int = DEFAULT_MAX_RESULTS
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "norms_sq", tuple(as_rational(v) for v in self.norms_sq))
        object.__setattr__(
            self, "eigenvalues", tuple(as_rational(v) for v in self.eigenvalues)
        )
        if sum(self.norms_sq, ZERO) != sum(self.eigenvalues, ZERO):
            raise ValueError("norm and eigenvalue multisets must have equal sums")
        if self.max_results < 1:
            raise ValueError("max_results must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Ready ordering pairs in lexicographic (eigenvalues, norms) order.

    ``exhausted`` is True only when every distinct ordering pair was
    decided; ``budget_exhausted`` marks a walk stopped by the node budget
    (the orderings found so far are still returned).  ``memo_hits``
    counts the states the walk skipped as known dead.
    """

    orderings: tuple[OrderingPair, ...]
    exhausted: bool
    budget_exhausted: bool = False
    nodes_used: int = 0
    memo_hits: int = 0


class _StopSearch(Exception):
    pass


class _Walk:
    """State of one exhaustive walk.

    The distinct norm and eigenvalue values are sorted once, decreasing,
    and ``norm_counts`` / ``eig_counts`` hold how many of each remain.
    ``dead`` holds the remaining counts of states whose subtree was walked
    to the end with no completion.
    """

    def __init__(self, req: SearchRequest):
        self.norm_values = sorted(set(req.norms_sq), reverse=True)
        self.eig_values = sorted(set(req.eigenvalues), reverse=True)
        self.norm_counts = [req.norms_sq.count(v) for v in self.norm_values]
        self.eig_counts = [req.eigenvalues.count(v) for v in self.eig_values]
        self.budget = req.budget
        self.max_results = req.max_results
        self.found: set[OrderingPair] = set()
        self.dead: set[tuple[int, ...]] = set()
        self.nodes = 0
        self.completions = 0  # record() calls, duplicates included
        self.memo_hits = 0
        self.budget_hit = False

    def visit(self, step, mass: Fraction, norm_seq: list, eig_seq: list) -> None:
        """Charge one node, then walk ``step``'s subtree unless it is dead.

        A skipped state is charged too, so ``budget=1`` stops at once.
        """
        self.nodes += 1
        if self.nodes > self.budget:
            self.budget_hit = True
            raise _StopSearch
        key = (*self.norm_counts, *self.eig_counts)
        if key in self.dead:
            self.memo_hits += 1
            return
        before = self.completions
        step(mass, norm_seq, eig_seq)
        if self.completions == before:
            self.dead.add(key)

    def record(self, norm_seq: list[Fraction], eig_seq: list[Fraction]) -> None:
        self.completions += 1
        self.found.add((tuple(norm_seq), tuple(eig_seq)))
        if len(self.found) >= self.max_results:
            raise _StopSearch

    def next_row(self, carry: Fraction, norm_seq: list, eig_seq: list) -> None:
        counts = self.eig_counts
        if not any(counts):
            if carry == 0 and not any(self.norm_counts):
                self.record(norm_seq, eig_seq)
            return
        for index, value in enumerate(self.eig_values):
            residual = value - carry
            if residual < 0:
                break
            if not counts[index]:
                continue
            counts[index] -= 1
            eig_seq.append(value)
            if residual == 0:
                self.visit(self.next_row, ZERO, norm_seq, eig_seq)
            else:
                self.visit(self.fill_row, residual, norm_seq, eig_seq)
            eig_seq.pop()
            counts[index] += 1

    def fill_row(self, residual: Fraction, norm_seq: list, eig_seq: list) -> None:
        counts, values = self.norm_counts, self.norm_values
        next_row_exists = any(self.eig_counts)
        for index, value in enumerate(values):
            if not counts[index]:
                continue
            if value <= residual:
                counts[index] -= 1
                norm_seq.append(value)
                remaining = residual - value
                if remaining == 0:
                    self.visit(self.next_row, ZERO, norm_seq, eig_seq)
                else:
                    self.visit(self.fill_row, remaining, norm_seq, eig_seq)
                norm_seq.pop()
                counts[index] += 1
            elif next_row_exists:
                # block: partner must carry at least the residual, and a
                # next eigenvalue must exist to absorb the second row
                counts[index] -= 1
                norm_seq.append(value)
                for slot, partner in enumerate(values):
                    if partner < residual:
                        break
                    if not counts[slot]:
                        continue
                    counts[slot] -= 1
                    norm_seq.append(partner)
                    self.visit(self.next_row, value + partner - residual, norm_seq, eig_seq)
                    norm_seq.pop()
                    counts[slot] += 1
                norm_seq.pop()
                counts[index] += 1


def _heuristic_pairs(req: SearchRequest) -> list[OrderingPair]:
    norms_dec = tuple(sorted(req.norms_sq, reverse=True))
    norms_inc = tuple(sorted(req.norms_sq))
    eigs_dec = tuple(sorted(req.eigenvalues, reverse=True))
    eigs_inc = tuple(sorted(req.eigenvalues))
    candidates = [
        (norms_dec, eigs_inc),
        (norms_dec, eigs_dec),
        (norms_inc, eigs_inc),
    ]
    seen: set[OrderingPair] = set()
    unique = []
    for pair in candidates:
        if pair not in seen:
            seen.add(pair)
            unique.append(pair)
    return unique


def find_ready_orderings(req: SearchRequest) -> SearchResult:
    """Enumerate ready ordering pairs, heuristics first, then exhaustively."""
    walk = _Walk(req)
    stopped_early = False
    for norms, eigs in _heuristic_pairs(req):
        if check_ready(FrameSpec(eigenvalues=eigs, norms_sq=norms)).ready:
            walk.found.add((norms, eigs))
            if len(walk.found) >= req.max_results:
                stopped_early = True
                break
    if not stopped_early:
        try:
            walk.visit(walk.next_row, ZERO, [], [])
        except _StopSearch:
            stopped_early = True
    ordered = tuple(sorted(walk.found, key=lambda pair: (pair[1], pair[0])))
    return SearchResult(
        orderings=ordered,
        exhausted=not stopped_early and not walk.budget_hit,
        budget_exhausted=walk.budget_hit,
        nodes_used=walk.nodes,
        memo_hits=walk.memo_hits,
    )


def is_any_ordering_ready(req: SearchRequest) -> bool | None:
    """True / False when decided; None when the budget ran out first."""
    result = find_ready_orderings(
        SearchRequest(
            norms_sq=req.norms_sq,
            eigenvalues=req.eigenvalues,
            max_results=1,
            budget=req.budget,
        )
    )
    if result.orderings:
        return True
    if result.exhausted:
        return False
    return None
