"""Search for ready orderings of eigenvalue and norm multisets.

The constructor's run is fully determined by the pair of orderings, so
the search enumerates orderings directly by simulating the cursor: within
a row, a remaining norm with mass <= the residual may be placed as a
singleton; a larger one opens a 2x2 block whose partner must carry at
least the residual; the block's second-row mass is charged against the
next eigenvalue.  A partial assignment is abandoned the moment any of
those constraints fails, which decides whole families of orderings at
once.

Each multiset is read once, into a table of its distinct values sorted
decreasing, with their counts.  The search sees the values through that
table alone, so permutations that only swap equal values are enumerated
once, and a found ordering is a pair of index tuples, turned into values
once, at the result.

Before anything else the search asks whether any frame exists.  A ready
ordering gives a synthesis matrix F with FF* = diag(eigenvalues) and
squared column norms the norms, so its Gram matrix F*F has those norms
on its diagonal and the eigenvalues, padded with zeros, as its spectrum.
By Schur-Horn for frames (Antezana, Massey, Ruiz and Stojanoff, Illinois
J. Math. 2007) the eigenvalues then majorize the norms.  The search tests
this first, on the table's values expanded by their counts (the prefix-sum
half of :func:`~spectral_tetris.readiness.majorizes`; the request has
checked the sums).  A request that fails has no ready ordering, and is
answered exhausted, with no orderings and no nodes, before any heuristic,
lift or walk.  So the gate changes ``nodes_used`` and ``memo_hits`` only,
and only on such a request: a walk found no ordering there either, but
it could stop at its budget, undecided, where the gate decides.

Three cheap heuristic orderings are tried before the exhaustive walk:
norms decreasing with eigenvalues increasing, both decreasing, and both
increasing.  Each distinct one is checked on a :class:`FrameSpec` built
from the table's values; the walk builds none.  The walk is budgeted by
node count, which is deterministic, unlike wall time.

The two sums are equal, so the remaining norm mass minus the remaining
eigenvalue mass is the residual of the open row (positive) or minus the
carry into the next row (zero or negative), and its sign picks the step:
fill the open row, or open the next one.  Masses are ints over D, the lcm
of the table's denominators, so a step is one int subtraction and a test
one int comparison.  The readiness scan
(:func:`~spectral_tetris.readiness._scan`) keeps reduced pairs instead,
since there a row's mass cancels as the row closes; a walk's mass sums an
arbitrary prefix of values, so its denominator grows towards D anyway.
D is made only when the walk runs, so a request the heuristics answer
never pays for it.  D can be hundreds of thousands of bits on a table of
many prime denominators, so past ``_LIFT_LIMIT_BITS`` of lifted table the
walk takes the same steps on the table's Fractions.

The steps run on an explicit stack of generators, one per live state on
the current path, not on the interpreter's stack, so a row of thousands
of values cannot overflow it.  A known-dead child is skipped inside the
step that makes it, so it costs one count and one lookup, and no
placement and no turn of the walk's loop.

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
count drops, and since a skipped state is charged as a node, counts stay
deterministic.

A state's key is one int, its remaining counts in mixed radix: table
index i (norms first, then eigenvalues) weighs w_i, the product of
m_j + 1 over the indices j before it, where m_j is index j's starting
count.  The key is the sum of count_i * w_i, a bijection on count
vectors, so the set is exactly as sound as one keyed by the counts
themselves.  The walk carries the key as it carries the mass: a step
subtracts the weight of the value it places (a block, two weights),
and the starting key is the product of every m_j + 1, less one.  The
norms' weighted counts sum to less than E, the first eigenvalue's
weight, so "an eigenvalue is left" is ``key >= E``.  A key that was a
tuple as long as the table would make each node cost O(distinct values),
and the set grow with nodes times distinct values.

The set takes keys while their total bit length, each key counted at
the width of the starting key (the largest), stays within
``_LIFT_LIMIT_BITS``; past that it takes no more, and lookups go on.
The cap is fixed by the table, so node counts still repeat.  It binds
only on tables whose keys are thousands of bits wide, walked for tens of
thousands of nodes.  There a dead state the set has no room for is
walked again, so ``nodes_used`` and ``memo_hits`` can differ from an
uncapped walk, and nothing else can.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .readiness import FrameSpec, _dominates, _ratio_tuple, check_ready
from .scalar import sum_ratios

DEFAULT_BUDGET = 1_000_000
DEFAULT_MAX_RESULTS = 16
_LIFT_LIMIT_BITS = 1 << 27  # the walk's lifted table: at most about 16 MiB

Ordering = tuple[Fraction, ...]
OrderingPair = tuple[Ordering, Ordering]  # (norms_sq, eigenvalues)


@dataclass(frozen=True)
class SearchRequest:
    """Multisets to order, with result and work limits.

    Both multisets must be nonempty and positive, as for a
    :class:`~spectral_tetris.readiness.FrameSpec`, with equal sums."""

    norms_sq: tuple[Fraction, ...]
    eigenvalues: tuple[Fraction, ...]
    max_results: int = DEFAULT_MAX_RESULTS
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        spec = FrameSpec(self.eigenvalues, self.norms_sq)
        object.__setattr__(self, "norms_sq", spec.norms_sq)
        object.__setattr__(self, "eigenvalues", spec.eigenvalues)
        if sum_ratios(spec._norm_pairs) != sum_ratios(spec._eigen_pairs):
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

    ``norm_values`` / ``eig_values`` are the distinct values, Fractions,
    decreasing, and ``norm_counts`` / ``eig_counts`` how many of each
    remain.  Past the table the walk holds indices into it: ``norm_seq``
    / ``eig_seq`` are the indices placed so far, in order, and ``found``
    each ready ordering as a pair of index tuples.  ``dead`` holds the
    keys of the states known dead.  :meth:`run` stores the counters
    ``nodes``, ``memo_hits`` and ``budget_hit``; :meth:`record` counts
    ``completions``.
    """

    def __init__(self, req: SearchRequest):
        norm_counts, eig_counts = Counter(req.norms_sq), Counter(req.eigenvalues)
        self.norm_values = sorted(norm_counts, reverse=True)
        self.eig_values = sorted(eig_counts, reverse=True)
        self.norm_counts = [norm_counts[v] for v in self.norm_values]
        self.eig_counts = [eig_counts[v] for v in self.eig_values]
        self.norm_seq: list[int] = []
        self.eig_seq: list[int] = []
        self.budget = req.budget
        self.max_results = req.max_results
        self.found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        self.dead: set[int] = set()
        self.nodes = 0
        self.completions = 0  # record() calls, duplicates included
        self.memo_hits = 0
        self.budget_hit = False

    def record(self, norm_seq, eig_seq) -> None:
        self.completions += 1
        self.found.add((tuple(norm_seq), tuple(eig_seq)))
        if len(self.found) >= self.max_results:
            raise _StopSearch

    def _lift(self) -> tuple[list, list]:
        """The norm and eigenvalue values, each times D, the lcm of the
        table's denominators, as ints.  Once D's bit length times the
        table's length passes ``_LIFT_LIMIT_BITS``, the lcm stops and the
        table's Fractions are returned instead."""
        values = self.norm_values + self.eig_values
        denominators = {value.denominator for value in values}
        common = 1
        for den in denominators:
            common = lcm(common, den)
            if common.bit_length() * len(values) > _LIFT_LIMIT_BITS:
                return self.norm_values, self.eig_values
        scale = {den: common // den for den in denominators}
        return (
            [v.numerator * scale[v.denominator] for v in self.norm_values],
            [v.numerator * scale[v.denominator] for v in self.eig_values],
        )

    def _steps(self):
        """The walk's step, its starting key and a reader of its counters.

        Lifts the table (:meth:`_lift`), makes each table index's weight
        and the room of ``dead``, and returns ``(children, key, tally)``:
        ``children(mass, key)`` is a generator over the live children of
        the state ``key`` with mass ``mass``, ``key`` is the starting key,
        and ``tally()`` reads ``(nodes, memo_hits)``.  For each child it
        makes, the generator charges a node, raises ``_StopSearch`` past
        the budget, and skips a child whose key is in ``dead`` as a memo
        hit, all before it places the child's value.  A live child's
        ``(mass, key)`` is yielded with its value placed while its subtree
        is walked: ``mass > 0`` fills the open row, and ``mass <= 0`` opens
        the next row or, with no eigenvalue left, records a completion.  A
        state whose subtree completed nothing is added to ``dead`` while it
        has room.  The root is charged here: a budget is at least 1."""
        norm_masses, eig_masses = self._lift()
        norm_counts, eig_counts = self.norm_counts, self.eig_counts
        norm_seq, eig_seq = self.norm_seq, self.eig_seq
        budget, dead, record = self.budget, self.dead, self.record
        counts = norm_counts + eig_counts
        weights = list(accumulate([count + 1 for count in counts], mul, initial=1))
        start = weights.pop() - 1  # every count at its start
        norm_weights, eig_weights = weights[: len(norm_counts)], weights[len(norm_counts) :]
        first_eig = eig_weights[0]
        dead_room = _LIFT_LIMIT_BITS // start.bit_length()
        nodes, memo_hits = 1, 0

        def children(mass, key):
            nonlocal nodes, memo_hits
            before = self.completions
            if mass > 0:
                next_row_exists = key >= first_eig
                for index, value in enumerate(norm_masses):
                    if not norm_counts[index]:
                        continue
                    if value <= mass:
                        nodes += 1
                        if nodes > budget:
                            raise _StopSearch
                        child = key - norm_weights[index]
                        if child in dead:
                            memo_hits += 1
                            continue
                        norm_counts[index] -= 1
                        norm_seq.append(index)
                        yield mass - value, child
                        norm_seq.pop()
                        norm_counts[index] += 1
                    # a block needs a next eigenvalue to absorb its second row
                    elif next_row_exists:
                        # the partner must carry at least the residual
                        norm_counts[index] -= 1
                        norm_seq.append(index)
                        rest, rest_key = mass - value, key - norm_weights[index]
                        for slot, partner in enumerate(norm_masses):
                            if partner < mass:
                                break
                            if not norm_counts[slot]:
                                continue
                            nodes += 1
                            if nodes > budget:
                                raise _StopSearch
                            child = rest_key - norm_weights[slot]
                            if child in dead:
                                memo_hits += 1
                                continue
                            norm_counts[slot] -= 1
                            norm_seq.append(slot)
                            yield rest - partner, child
                            norm_seq.pop()
                            norm_counts[slot] += 1
                        norm_seq.pop()
                        norm_counts[index] += 1
                        # the later children, singletons mostly, must not
                        # hold a closed block's mass: one lifted value each
                        del rest, rest_key
            elif key >= first_eig:
                for index, value in enumerate(eig_masses):
                    residual = value + mass
                    if residual < 0:
                        break
                    if not eig_counts[index]:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise _StopSearch
                    child = key - eig_weights[index]
                    if child in dead:
                        memo_hits += 1
                        continue
                    eig_counts[index] -= 1
                    eig_seq.append(index)
                    yield residual, child
                    eig_seq.pop()
                    eig_counts[index] += 1
            else:  # with no eigenvalue left, mass is the norm mass left: 0
                record(norm_seq, eig_seq)
            if self.completions == before and len(dead) < dead_room:
                dead.add(key)

        return children, start, lambda: (nodes, memo_hits)

    def run(self) -> None:
        """Walk every state from the empty prefix (mass 0).

        The stack holds one :meth:`_steps` generator per live state on the
        current path.  The loop resumes the top one: a live child it
        yields gets a generator of its own on top, and a generator that
        ends is popped, so its parent resumes once the child's subtree is
        done.  The counters are stored back however the walk ends; the
        budget stopped it if and only if more nodes were charged than it
        allows."""
        children, key, tally = self._steps()
        stack = [children(0, key)]
        push, pop = stack.append, stack.pop
        try:
            while stack:
                for mass, key in stack[-1]:
                    push(children(mass, key))
                    break
                else:
                    pop()
        finally:
            self.nodes, self.memo_hits = tally()
            self.budget_hit = self.nodes > self.budget


# Both helpers make a list before the tuple.  CPython's ``tuple`` of an
# iterator with no length hint starts at ten slots and shrinks them; of a
# list, it allocates the exact size.


def _decreasing(counts: list[int]) -> tuple[int, ...]:
    """Each table index as many times as its count: the multiset in the
    table's decreasing order."""
    return tuple([index for index, count in enumerate(counts) for _ in range(count)])


def _pick(table: list, indices: tuple[int, ...]) -> tuple:
    return tuple([table[index] for index in indices])


def find_ready_orderings(req: SearchRequest) -> SearchResult:
    """Enumerate ready ordering pairs: none if the eigenvalues fail to
    majorize the norms, else heuristics first, then exhaustively."""
    walk = _Walk(req)
    norms_dec, eigs_dec = _decreasing(walk.norm_counts), _decreasing(walk.eig_counts)
    # the sums are equal (SearchRequest), so this is the whole of majorizes
    eig_pairs, norm_pairs = _ratio_tuple(walk.eig_values), _ratio_tuple(walk.norm_values)
    if not _dominates(_pick(eig_pairs, eigs_dec), _pick(norm_pairs, norms_dec)):
        return SearchResult(orderings=(), exhausted=True)
    norms_inc, eigs_inc = norms_dec[::-1], eigs_dec[::-1]
    candidates = [(norms_dec, eigs_inc), (norms_dec, eigs_dec), (norms_inc, eigs_inc)]
    try:
        for norms, eigs in dict.fromkeys(candidates):
            spec = FrameSpec(_pick(walk.eig_values, eigs), _pick(walk.norm_values, norms))
            if check_ready(spec).ready:
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
