"""Shared test utilities: dense views, randomized spec generators and
reference implementations the fast paths are checked against."""

from __future__ import annotations

import contextlib
import math
import random
import re
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement

import pytest

from spectral_tetris import (
    Block2x2,
    BlockKind,
    BlockRecord,
    ConstructionStuckError,
    FrameSpec,
    Partition,
    RadicalScalar,
    SearchResult,
    SynthesisMatrix,
    Violation,
    build_block,
    format_rational,
)
from spectral_tetris import formats, search
from spectral_tetris.formats import GENERATOR_NAME, GENERATOR_VERSION, NORM_DENOMINATOR_LIMIT
from spectral_tetris.scalar import add_ratios, describe_rational, parse_rational


def grid(matrix: SynthesisMatrix) -> list[list[tuple[int, Fraction]]]:
    """Dense (sign, radicand) view for exact entrywise comparisons."""
    return [
        [
            (matrix.entry(r, c).sign, matrix.entry(r, c).radicand)
            for c in range(matrix.count)
        ]
        for r in range(matrix.dim)
    ]


def dense_float_rows(matrix: SynthesisMatrix) -> list[list[float]]:
    """Dense float view, every cell of every row: the reference the sparse
    float CSV writer and loader are checked against."""
    dense = [[0.0] * matrix.count for _ in range(matrix.dim)]
    for r, c, value in matrix.entries:
        dense[r][c] = float(value)
    return dense


def dense_float_csv(matrix: SynthesisMatrix) -> str:
    """Reference for ``formats.dump_float_csv``: every cell of
    ``dense_float_rows`` formatted with 17 significant digits."""
    lines = []
    for row in dense_float_rows(matrix):
        lines.append(",".join(f"{value:.17g}" for value in row))
    return "\n".join(lines) + "\n"


def cell(sign: int, radicand) -> tuple[int, Fraction]:
    return (sign, Fraction(radicand))


def matrix_from_grid(rows) -> SynthesisMatrix:
    """Build a matrix from (sign, radicand) cells; no construction log."""
    entries = [
        (r, c, RadicalScalar(sign, Fraction(radicand)))
        for r, row in enumerate(rows)
        for c, (sign, radicand) in enumerate(row)
    ]
    return SynthesisMatrix(
        dim=len(rows), count=len(rows[0]), entries=entries, block_log=()
    )


def radical_product(a: RadicalScalar, b: RadicalScalar) -> RadicalScalar:
    """The product of two radicals: signs and radicands multiply."""
    return RadicalScalar(a.sign * b.sign, a.radicand * b.radicand)


def block_row_sums_sq(block: Block2x2) -> tuple[Fraction, Fraction]:
    """The squared norms of a block's two rows."""
    return tuple(e[0].radicand + e[1].radicand for e in block.entries)  # type: ignore[return-value]


def block_col_sums_sq(block: Block2x2) -> tuple[Fraction, Fraction]:
    """The squared norms of a block's two columns."""
    return (
        block.entries[0][0].radicand + block.entries[1][0].radicand,
        block.entries[0][1].radicand + block.entries[1][1].radicand,
    )


def small_fraction(rng: random.Random, top: int = 20) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def random_ready_spec(
    rng: random.Random, max_dim: int = 6, max_count: int = 12
) -> FrameSpec:
    """Sample a spec the constructor provably accepts.

    A random cursor run is drawn (singletons fit the residual, blocks get
    a first column strictly above the residual and a partner at least the
    residual), then the row and column masses are read off.
    """
    while True:
        spec = _attempt_ready(rng, max_dim, max_count)
        if spec is not None:
            return spec


def _attempt_ready(rng: random.Random, max_dim: int, max_count: int) -> FrameSpec | None:
    dim = rng.randint(1, max_dim)
    eigenvalues: list[Fraction] = []
    norms: list[Fraction] = []
    carry = Fraction(0)
    for k in range(dim):
        last = k == dim - 1
        row_mass = carry
        for _ in range(rng.randint(0, 2)):
            if len(norms) >= max_count:
                break
            value = small_fraction(rng)
            norms.append(value)
            row_mass += value
        use_block = not last and len(norms) + 2 <= max_count and rng.random() < 0.6
        if use_block:
            x = small_fraction(rng)
            first = x + small_fraction(rng)
            second = x if rng.random() < 0.25 else x + small_fraction(rng)
            norms.extend([first, second])
            row_mass += x
            carry = first + second - x
        else:
            carry = Fraction(0)
        if row_mass == 0:
            return None
        eigenvalues.append(row_mass)
    if not norms:
        return None
    return FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=tuple(norms))


def random_mixed_spec(rng: random.Random) -> FrameSpec:
    """Mixed population: ready runs, shuffled runs, fully random specs."""
    roll = rng.random()
    if roll < 0.4:
        return random_ready_spec(rng)
    if roll < 0.75:
        spec = random_ready_spec(rng)
        norms = list(spec.norms_sq)
        eigenvalues = list(spec.eigenvalues)
        rng.shuffle(norms)
        if len(eigenvalues) > 1 and rng.random() < 0.5:
            rng.shuffle(eigenvalues)
        return FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=tuple(norms))
    while True:
        dim = rng.randint(1, 6)
        count = rng.randint(1, 12)
        eigenvalues = [small_fraction(rng) for _ in range(dim)]
        norms = [small_fraction(rng) for _ in range(count - 1)]
        closing = sum(eigenvalues) - sum(norms, Fraction(0))
        if rng.random() < 0.1:
            # leave the trace broken on purpose
            closing = abs(closing) + small_fraction(rng)
        if closing > 0:
            norms.append(closing)
            return FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=tuple(norms))


def random_unit_spectrum(rng: random.Random, max_dim: int = 6) -> tuple[tuple[Fraction, ...], int]:
    """Random positive eigenvalues summing exactly to an integer count."""
    dim = rng.randint(1, max_dim)
    count = rng.randint(dim, 2 * dim + 4)
    weights = [Fraction(rng.randint(1, 30)) for _ in range(dim)]
    total = sum(weights)
    eigenvalues = tuple(count * w / total for w in weights)
    return eigenvalues, count


# Multisets whose search output is pinned: name -> (squared norms,
# eigenvalues), each a space-separated list of rational literals.
SEARCH_FAMILIES = {
    "tight-four": ("4 4 4 1", "13/3 13/3 13/3"),
    "five-norm-tight": ("7 7 6 1 1", "22/3 22/3 22/3"),
    "seven-norm-tight": ("7 7 6 1 1 3 3", "28/3 28/3 28/3"),
    "three-eigenvalues": ("3 3 2 1", "4 3 2"),
    "combined": ("210 210 180 30 30 4 4 4 1", "220 220 220 6 4 3"),
    "trivial-pair": ("1 1", "1 1"),
    "largest-catalog-infeasible": ("26 20 13 12 7 4 3 3", "24 24 22 18"),
    "unready-multiset": ("5 1 7 1 2 9 8 8 10", "4 37 3 5 2"),
}


def pnstc_succeeds(spec: FrameSpec) -> bool:
    from spectral_tetris import SpectralTetrisError, pnstc

    try:
        pnstc(spec)
        return True
    except SpectralTetrisError:
        return False


def matrix_to_payload(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    reproducible: bool = False,
) -> dict:
    """The matrix file as a JSON value; ``formats.canonical_json`` of it is
    the byte oracle for ``formats.dump_matrix_file``."""
    metadata: dict = {
        "blockLog": [
            {"kind": record.kind.value, "rowSpan": list(record.rows), "colSpan": list(record.cols)}
            for record in matrix.block_log
        ]
    }
    if spec is not None:
        metadata["eigenvalues"] = [format_rational(v) for v in spec.eigenvalues]
        metadata["norms_squared"] = [format_rational(v) for v in spec.norms_sq]
    if not reproducible:
        metadata["generator"] = {"name": GENERATOR_NAME, "version": GENERATOR_VERSION}
    return {
        "dim": matrix.dim,
        "count": matrix.count,
        "entries": [
            {
                "row": r,
                "col": c,
                "sign": value.sign,
                "rad": {"num": value.radicand.numerator, "den": value.radicand.denominator},
            }
            for r, c, value in matrix.entries
        ],
        "metadata": metadata,
    }


class FractionCount:
    """The number of Fractions made so far inside a ``count_fractions`` block."""

    made = 0


@contextlib.contextmanager
def count_fractions():
    """Count every ``Fraction.__new__`` call made inside the block."""
    original = Fraction.__new__
    count = FractionCount()

    def counted(cls, *args, **kwargs):
        count.made += 1
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        yield count


def _parse_outcome(payload):
    try:
        spec, warnings = formats.parse_spec_payload(payload)
    except Exception as exc:  # the reference must raise alike
        return type(exc), str(exc)
    return spec, spec._eigen_pairs, spec._norm_pairs, hash(spec), warnings


def _parse_every_item(payload, key, parse=parse_rational):
    """Reference for ``formats._parse_each``: the same array check, then
    ``parse`` over the ``str`` of every item, with no cache."""
    literals = payload[key]
    if type(literals) is not list:
        raise TypeError(f"{key!r} must be a JSON array, not {type(literals).__name__}")
    return tuple([parse(str(item)) for item in literals])


def spec_parse_outcomes(payload) -> tuple:
    """``formats.parse_spec_payload(payload)`` as it is, and with each
    literal parsed anew for every item (:func:`_parse_every_item`): each
    as the spec, its pairs, its hash and the warnings, or as the
    exception type and message."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_parse_each", _parse_every_item)
        public = _parse_outcome(payload)
    return _parse_outcome(payload), public


_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational_via_fraction(text: str) -> Fraction:
    """Reference for ``scalar.parse_rational``: match the literal, then let
    ``Fraction`` parse the text a second time."""
    text = text.strip()
    if not _RATIONAL_LITERAL.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def square_norm_via_fraction(text: str) -> tuple[Fraction, str | None]:
    """Reference for one literal of a spec's ``norms``: the square through
    ``Fraction``, rounded to a denominator of at most
    ``NORM_DENOMINATOR_LIMIT``, and the rounding warning (None if exact)."""
    exact = Fraction(text) ** 2
    rounded = exact.limit_denominator(NORM_DENOMINATOR_LIMIT)
    if rounded == exact:
        return rounded, None
    exact_text, rounded_text = describe_rational(exact), describe_rational(rounded)
    return rounded, f"norm {text}: squared value {exact_text} rounded to {rounded_text}"


def int_field(value) -> int:
    """Reference for a matrix file's int field: ``int(value)``, but a float
    that is not integral is refused, not truncated, and so is a boolean."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"malformed matrix file: {value!r} is not an integer")
    return int(value)


def radical_via_fraction(item: dict) -> RadicalScalar:
    """Reference for a matrix-file entry's value: one Fraction and the
    public constructor's checks."""
    rad = item["rad"]
    value = Fraction(int_field(rad["num"]), int_field(rad["den"]))
    return RadicalScalar(int_field(item["sign"]), value)


def matrix_from_payload_per_entry(payload: dict) -> SynthesisMatrix:
    """Reference for ``formats.matrix_from_payload``: one
    ``radical_via_fraction`` per entry, no sharing, every int field through
    ``int_field``, every record through the public ``BlockRecord``, whose
    refusal of a span that is not a pair names the matrix file, and the
    library's other exceptions unwrapped."""
    entries = [
        (int_field(item["row"]), int_field(item["col"]), radical_via_fraction(item))
        for item in payload["entries"]
    ]
    log = []
    for record in payload.get("metadata", {}).get("blockLog", []):
        kind = BlockKind(record["kind"])
        rows = tuple(map(int_field, record["rowSpan"]))
        cols = tuple(map(int_field, record["colSpan"]))
        try:
            log.append(BlockRecord(kind=kind, rows=rows, cols=cols))
        except ValueError as exc:
            raise ValueError(f"malformed matrix file: {exc}") from exc
    return SynthesisMatrix(
        dim=int_field(payload["dim"]),
        count=int_field(payload["count"]),
        entries=entries,
        block_log=log,
    )


def k_inequality_scan_loop(count: int, dim: int) -> int | None:
    """Row-by-row reference for ``k_inequality_scan`` on 1 < count/dim < 2,
    in O(dim) steps."""
    redundancy = Fraction(count, dim)
    for k in range(1, dim):
        k_mass = k * redundancy
        if k_mass.denominator == 1:
            continue
        if math.floor(k_mass) > (k + 1) * redundancy - 2:
            return k
    return None


def majorizes_via_fraction(eigenvalues, norms_sq) -> bool:
    """Reference for ``readiness.majorizes``: the same test with every
    partial sum a ``Fraction``."""
    eig = sorted(map(Fraction, eigenvalues), reverse=True)
    nsq = sorted(map(Fraction, norms_sq), reverse=True)
    if sum(eig, Fraction(0)) != sum(nsq, Fraction(0)):
        return False
    eig_acc = nsq_acc = Fraction(0)
    for n in range(len(eig)):
        eig_acc += eig[n]
        if n < len(nsq):
            nsq_acc += nsq[n]
        if nsq_acc > eig_acc:
            return False
    return True


def reference_cursor(spec: FrameSpec):
    """Reference for ``readiness._cursor``: the same walk with every mass a
    ``Fraction``, yielding and raising exactly what the cursor does."""
    eigenvalues, norms, count = spec.eigenvalues, spec.norms_sq, spec.count
    col = 0
    carry = Fraction(0)
    for row, eigenvalue in enumerate(eigenvalues):
        residual = eigenvalue - carry if carry else eigenvalue
        while col < count and norms[col] <= residual:
            yield row, col, None
            residual -= norms[col]
            col += 1
        carry = Fraction(0)
        if residual == 0:
            continue
        k = row + 1
        if col + 1 >= count:
            detail = (
                f"row {k} needs a block over columns {col + 1}, {col + 2} "
                f"but only {count} columns exist"
            )
            raise ConstructionStuckError(detail, row=row, col=col, violation=(k, Violation.GAP_II))
        partner = norms[col + 1]
        if partner < residual:
            detail = f"column {col + 2} squared norm {partner} < deficit {residual}"
            raise ConstructionStuckError(
                detail, row=row, col=col, violation=(k, Violation.NORM_BOUND_II)
            )
        carry = norms[col] + partner - residual
        if carry > eigenvalues[k]:
            detail = (
                f"the block over columns {col + 1}, {col + 2} puts mass {carry} "
                f"into row {k + 1}, whose eigenvalue is {eigenvalues[k]}"
            )
            raise ConstructionStuckError(detail, row=row, col=col, violation=(k, Violation.GAP_II))
        yield row, col, residual
        col += 2


def reference_pnstc(spec: FrameSpec) -> SynthesisMatrix:
    """Reference for ``construct.pnstc``: the placements of
    ``reference_cursor``, with one ``build_block`` call per placed block
    and one root per singleton, nothing shared.  Requires the trace
    identity."""
    norms = spec.norms_sq
    entries = []
    log = []
    for row, col, x in reference_cursor(spec):
        if x is None:
            entries.append((row, col, RadicalScalar.sqrt(norms[col])))
            log.append(BlockRecord(BlockKind.SINGLETON, (row, row), (col, col)))
            continue
        block = build_block(x, norms[col], norms[col + 1])
        for dr in (0, 1):
            for dc in (0, 1):
                entries.append((row + dr, col + dc, block.entries[dr][dc]))
        kind = BlockKind.DEGENERATE_BLOCK if block.degenerate else BlockKind.BLOCK_2X2
        log.append(BlockRecord(kind, (row, row + 1), (col, col + 1)))
    return SynthesisMatrix(dim=spec.dim, count=spec.count, entries=entries, block_log=tuple(log))


def fold_ratios(pairs) -> tuple[int, int]:
    """Reference for ``scalar.sum_ratios``: one ``add_ratios`` per pair,
    however long the list and however often a pair repeats."""
    num, den = 0, 1
    for other, other_den in pairs:
        num, den = add_ratios(num, den, other, other_den)
    return num, den


def reference_partition(spec: FrameSpec) -> Partition:
    """Reference for ``readiness.forced_partition``: the prefix-sum sandwich
    ``A(m_k) <= L(k) < A(m_k + 1)`` solved by bisection over Fraction
    prefix sums; requires the trace identity."""
    norm_prefix = list(accumulate(spec.norms_sq, initial=Fraction(0)))
    cuts = [bisect_right(norm_prefix, level) - 1 for level in accumulate(spec.eigenvalues[:-1])]
    cuts.append(spec.count)
    return Partition(tuple(cuts))


def mixed_radix_key(counts, starts) -> int:
    """The remaining ``counts`` as one int: index i weighs the product of
    ``start + 1`` over the indices before it, in mixed radix."""
    key, weight = 0, 1
    for count, start in zip(counts, starts):
        key += count * weight
        weight *= start + 1
    return key


def reference_walk(walk) -> None:
    """Reference for ``search._Walk.run``: the same walk on the table's
    Fractions, by recursion, with each state's remaining counts as a tuple
    key.  A node is charged before the dead-set lookup, and the dead set
    takes ``search._LIFT_LIMIT_BITS`` // w keys at most, w being the bit
    length of the largest mixed-radix key."""
    norms, eigs = walk.norm_values, walk.eig_values
    norm_counts, eig_counts = walk.norm_counts, walk.eig_counts
    norm_seq, eig_seq = walk.norm_seq, walk.eig_seq
    width = (math.prod(count + 1 for count in norm_counts + eig_counts) - 1).bit_length()
    room = search._LIFT_LIMIT_BITS // width
    dead: set[tuple[int, ...]] = set()

    def place(counts, seq, index, mass):
        counts[index] -= 1
        seq.append(index)
        visit(mass)
        seq.pop()
        counts[index] += 1

    def visit(mass):
        walk.nodes += 1
        if walk.nodes > walk.budget:
            walk.budget_hit = True
            raise search._StopSearch
        key = (*norm_counts, *eig_counts)
        if key in dead:
            walk.memo_hits += 1
            return
        before = walk.completions
        if mass > 0:
            for index, value in enumerate(norms):
                if not norm_counts[index] or (value > mass and not any(eig_counts)):
                    continue
                if value <= mass:
                    place(norm_counts, norm_seq, index, mass - value)
                    continue
                norm_counts[index] -= 1
                norm_seq.append(index)
                for slot, partner in enumerate(norms):
                    if partner < mass:
                        break
                    if norm_counts[slot]:
                        place(norm_counts, norm_seq, slot, mass - value - partner)
                norm_seq.pop()
                norm_counts[index] += 1
        elif any(eig_counts):
            for index, value in enumerate(eigs):
                if value + mass < 0:
                    break
                if eig_counts[index]:
                    place(eig_counts, eig_seq, index, value + mass)
        else:
            walk.record(norm_seq, eig_seq)
        if walk.completions == before and len(dead) < room:
            dead.add(key)

    visit(Fraction(0))


def walk_alone(request) -> SearchResult:
    """The search with neither its majorization gate nor its heuristic
    candidates: ``search._Walk`` run alone on ``request``, its result in
    the form ``find_ready_orderings`` gives."""
    walk = search._Walk(request)
    try:
        walk.run()
        exhausted = True
    except search._StopSearch:
        exhausted = False
    found = [(search._pick(walk.norm_values, n), search._pick(walk.eig_values, e)) for n, e in walk.found]
    return SearchResult(
        orderings=tuple(sorted(found, key=lambda pair: (pair[1], pair[0]))),
        exhausted=exhausted,
        budget_exhausted=walk.budget_hit,
        nodes_used=walk.nodes,
        memo_hits=walk.memo_hits,
    )


def atlas(max_eigenvalues: int = 3, max_norms: int = 6, top: int = 8):
    """Every pair ``(norms_sq, eigenvalues)`` of nonincreasing tuples of
    ints in 1..``top`` with equal sums, with 2..``max_eigenvalues``
    eigenvalues and more squared norms than eigenvalues, at most
    ``max_norms``.  No randomness: by eigenvalue count, then norm count,
    then each tuple in reverse lexicographic order."""
    values = range(top, 0, -1)
    for dim in range(2, max_eigenvalues + 1):
        for count in range(dim + 1, max_norms + 1):
            by_sum = defaultdict(list)
            for norms in combinations_with_replacement(values, count):
                by_sum[sum(norms)].append(norms)
            for eigenvalues in combinations_with_replacement(values, dim):
                for norms in by_sum[sum(eigenvalues)]:
                    yield norms, eigenvalues


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """sqrt(q) when q >= 0 is a rational square, else None.

    A reduced fraction is a square iff its numerator and denominator are.
    """
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def square_free_split(n: int) -> tuple[int, int]:
    """(s, f) with n = s^2 * f and f square-free, for n >= 1, by trial
    division: what is left once every d with d^2 <= n is divided out is 1
    or a prime."""
    s, f, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            f *= d
        d += 1
    return s, f * n


def canonical_radical(a: RadicalScalar) -> tuple[Fraction, int]:
    """``a`` as (c, f) with a = c * sqrt(f) and f a square-free integer.

    sqrt(p/q) = (sp / (sq * fq)) * sqrt(fp * fq) for p = sp^2 * fp and
    q = sq^2 * fq; p and q are coprime, so fp * fq is square-free.
    """
    if a.sign == 0:
        return Fraction(0), 1
    sp, fp = square_free_split(a.num)
    sq, fq = square_free_split(a.den)
    return Fraction(a.sign * sp, sq * fq), fp * fq


def reference_radical_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Reference for ``verify._radical_sum_is_zero`` on Fractions: whether
    sum(m * sqrt(r)) over ``terms`` (radicand r -> m) is zero.

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
