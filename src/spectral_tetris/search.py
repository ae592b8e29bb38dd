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

Each multiset is read once, into a table of its distinct values sorted
decreasing, with their reduced ``(num, den)`` pairs and counts.  The
search sees the values through that table alone: the walk places table
indices, and a found ordering is a pair of index tuples, turned into
values once, at the result.

Three cheap heuristic orderings are tried before the exhaustive walk:
norms decreasing with eigenvalues increasing, both decreasing, and both
increasing.  They are read off the table (decreasing is table order),
and each is checked on a spec built from the table's values and pairs
through :func:`~spectral_tetris.readiness._frame_spec`, which keeps the
public constructor's checks.  The walk itself is budgeted by node count
(deterministic, unlike wall time).

The two sums are equal, so the remaining norm mass minus the remaining
eigenvalue mass is the residual of the open row (positive) or minus the
carry into the next row (zero or negative).  The walk takes one step
per placed value (a block places two), and the sign of that mass picks
the step: fill the open row, or open the next one.  Masses are reduced
``(num, den)`` int pairs, summed by
:func:`~spectral_tetris.scalar.add_ratios` and compared by
cross-multiplying, so the walk's state is all ints.  The steps run
on an explicit stack of generators, one per state on the current path,
not on the interpreter's stack, so a row of thousands of values cannot
overflow it.

Many prefixes reach the same state: the same values placed in another
order.  A state is fixed by the remaining multiplicities of each norm
and eigenvalue alone, which fix the mass too.  Its subtree depends on
nothing else, so a state whose subtree was walked to the end with no
completion is dead wherever it is reached again.  The walk keeps these
dead states in a set that lives for one call and skips them.
Completions, duplicates included, are what tell a dead subtree from a
live one.  A walk stopped by the budget or the result limit adds
nothing.  A skipped subtree holds no completion, so the walk meets the
same completions in the same order as without the set.  Only the node
count drops.  The node is charged before the lookup, so counts stay
deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .readiness import _frame_spec, _rational_tuple, check_ready
from .scalar import add_ratios, exact_sum

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
        object.__setattr__(self, "norms_sq", _rational_tuple(self.norms_sq))
        object.__setattr__(self, "eigenvalues", _rational_tuple(self.eigenvalues))
        if exact_sum(self.norms_sq) != exact_sum(self.eigenvalues):
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
    """State of one exhaustive walk, and the search's table of values.

    The distinct norm and eigenvalue values are sorted once, decreasing,
    and taken apart once into reduced ``(num, den)`` pairs, kept in the
    same order; ``norm_counts`` / ``eig_counts`` hold how many of each
    remain.  Past the table the walk holds indices into it:
    ``norm_seq`` / ``eig_seq`` are the indices placed so far, in order,
    and ``found`` each ready ordering as a pair of index tuples.  The
    mass is a reduced ``(num, den)`` pair too: sums go through
    :func:`~spectral_tetris.scalar.add_ratios` and comparisons
    cross-multiply (den > 0), so each denominator stays bounded by the
    values in play.  ``dead`` holds the remaining counts of states whose
    subtree was walked to the end with no completion.
    """

    def __init__(self, req: SearchRequest):
        norm_counts, eig_counts = Counter(req.norms_sq), Counter(req.eigenvalues)
        self.norm_values = sorted(norm_counts, reverse=True)
        self.eig_values = sorted(eig_counts, reverse=True)
        self.norm_pairs = [(v.numerator, v.denominator) for v in self.norm_values]
        self.eig_pairs = [(v.numerator, v.denominator) for v in self.eig_values]
        self.norm_counts = [norm_counts[v] for v in self.norm_values]
        self.eig_counts = [eig_counts[v] for v in self.eig_values]
        self.norm_seq: list[int] = []
        self.eig_seq: list[int] = []
        self.budget = req.budget
        self.max_results = req.max_results
        self.found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        self.dead: set[tuple[int, ...]] = set()
        self.nodes = 0
        self.completions = 0  # record() calls, duplicates included
        self.memo_hits = 0
        self.budget_hit = False

    def record(self, norm_seq, eig_seq) -> None:
        self.completions += 1
        self.found.add((tuple(norm_seq), tuple(eig_seq)))
        if len(self.found) >= self.max_results:
            raise _StopSearch

    def run(self) -> None:
        """Walk every state from the empty prefix (mass 0).

        Each state that is not known dead gets a :meth:`children`
        generator on the stack; the loop charges one node per child mass
        it yields, before the dead-set lookup, so ``budget=1`` stops at
        once and a skipped state is charged too.  A generator is resumed
        once the subtree of its last child is done."""
        norm_counts, eig_counts, dead = self.norm_counts, self.eig_counts, self.dead
        stack = []
        mass = (0, 1)
        while True:
            if mass is not None:
                self.nodes += 1
                if self.nodes > self.budget:
                    self.budget_hit = True
                    raise _StopSearch
                key = (*norm_counts, *eig_counts)
                if key in dead:
                    self.memo_hits += 1
                else:
                    stack.append(self.children(key, *mass))
            if not stack:
                return
            mass = next(stack[-1], None)
            if mass is None:
                stack.pop()

    def children(self, key: tuple[int, ...], num: int, den: int):
        """Yield the mass of each child of the state ``key`` with mass
        num / den, with the child's value placed while its subtree is
        walked: ``num > 0`` fills the open row, and ``num <= 0`` opens the
        next row or, with no eigenvalue left, records a completion.  A
        state whose subtree completed nothing is added to ``dead``."""
        before = self.completions
        norm_counts, eig_counts = self.norm_counts, self.eig_counts
        norm_seq, eig_seq = self.norm_seq, self.eig_seq
        if num > 0:
            norm_pairs = self.norm_pairs
            next_row_exists = any(eig_counts)
            for index, (value, value_den) in enumerate(norm_pairs):
                if not norm_counts[index]:
                    continue
                fits = value * den <= num * value_den
                # a block needs a next eigenvalue to absorb its second row
                if not (fits or next_row_exists):
                    continue
                norm_counts[index] -= 1
                norm_seq.append(index)
                rest = add_ratios(num, den, -value, value_den)
                if fits:
                    yield rest
                else:  # block: the partner must carry at least the residual
                    rest, rest_den = rest
                    for slot, (partner, partner_den) in enumerate(norm_pairs):
                        if partner * den < num * partner_den:
                            break
                        if not norm_counts[slot]:
                            continue
                        norm_counts[slot] -= 1
                        norm_seq.append(slot)
                        yield add_ratios(rest, rest_den, -partner, partner_den)
                        norm_seq.pop()
                        norm_counts[slot] += 1
                norm_seq.pop()
                norm_counts[index] += 1
        elif any(eig_counts):
            for index, (value, value_den) in enumerate(self.eig_pairs):
                residual = add_ratios(value, value_den, num, den)
                if residual[0] < 0:
                    break
                if not eig_counts[index]:
                    continue
                eig_counts[index] -= 1
                eig_seq.append(index)
                yield residual
                eig_seq.pop()
                eig_counts[index] += 1
        else:  # with no eigenvalue left, mass is the norm mass left: 0
            self.record(norm_seq, eig_seq)
        if self.completions == before:
            self.dead.add(key)


# Both helpers make a list before the tuple.  CPython's ``tuple`` of an
# iterator with no length hint starts at ten slots and shrinks them, which
# raised peak RSS by 0.5 MB over 1,280 searches; of a list, it allocates
# the exact size.


def _decreasing(counts: list[int]) -> tuple[int, ...]:
    """Each table index as many times as its count: the multiset in the
    table's decreasing order."""
    return tuple([index for index, count in enumerate(counts) for _ in range(count)])


def _pick(table: list, indices: tuple[int, ...]) -> tuple:
    return tuple([table[index] for index in indices])


def find_ready_orderings(req: SearchRequest) -> SearchResult:
    """Enumerate ready ordering pairs, heuristics first, then exhaustively."""
    walk = _Walk(req)
    norms_dec, eigs_dec = _decreasing(walk.norm_counts), _decreasing(walk.eig_counts)
    norms_inc, eigs_inc = norms_dec[::-1], eigs_dec[::-1]
    candidates = [(norms_dec, eigs_inc), (norms_dec, eigs_dec), (norms_inc, eigs_inc)]
    try:
        for norms, eigs in dict.fromkeys(candidates):
            eig_values, norm_values = _pick(walk.eig_values, eigs), _pick(walk.norm_values, norms)
            eig_pairs, norm_pairs = _pick(walk.eig_pairs, eigs), _pick(walk.norm_pairs, norms)
            if check_ready(_frame_spec(eig_values, norm_values, eig_pairs, norm_pairs)).ready:
                walk.record(norms, eigs)
        walk.run()
        stopped_early = False
    except _StopSearch:
        stopped_early = True
    found = [
        (_pick(walk.norm_values, norms), _pick(walk.eig_values, eigs))
        for norms, eigs in walk.found
    ]
    ordered = tuple(sorted(found, key=lambda pair: (pair[1], pair[0])))
    return SearchResult(
        orderings=ordered,
        exhausted=not stopped_early,
        budget_exhausted=walk.budget_hit,
        nodes_used=walk.nodes,
        memo_hits=walk.memo_hits,
    )
