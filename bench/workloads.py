"""Seeded inputs for the benchmark workloads.

A workload is a pool of items; each item is the input of one op: a spec
file payload plus what the checker expects of it.  The same seed gives
the same pool in the same order, and :func:`spec_text` renders a payload
to the same bytes every time.

Two things keep medians steady from seed to seed:

* The pool order is a schedule, not a shuffle.  Every round visits each
  stratum (norm style, readiness, search class) once, and any prefix of
  rounds covers the whole range of sizes or costs.  A run that stops part
  way through a pass still sees the same mix as a full pass.
* Where op costs spread widely from input to input (mixed-rational,
  search-orderings), inputs come from a catalog that records each one's
  cost (make_catalog.py).  A pool splits the catalog, sorted by cost, into
  as many runs of equal size as it needs inputs, and takes one input from
  each run.  The seed chooses which one, and the order within the file.
  On mixed-rational the sort puts the specs whose verify falls back to
  float first, so every pool has the same share of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spectral_tetris.readiness import FrameSpec, check_ready
from spectral_tetris.scalar import format_rational

# Item.expect values.
READY = "ready"  # a cursor run read off as a spec: must construct and verify
REJECTED = "rejected"  # a shuffled cursor run that check_ready rejects
FEASIBLE = "feasible"  # search multisets of a shuffled cursor run
INFEASIBLE = "infeasible"  # search multisets that fail majorization


@dataclass(frozen=True)
class Item:
    name: str
    payload: dict
    expect: str


def spec_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _bit_reverse(value: int, size: int) -> int:
    bits = size.bit_length() - 1
    return int(format(value, f"0{bits}b")[::-1], 2) if bits else 0


def _schedule(rounds: int, combos: int):
    """Yield (combo, slice) in execution order; ``rounds`` is a power of 2."""
    for r in range(rounds):
        base = _bit_reverse(r, rounds)
        for combo in range(combos):
            yield combo, (base + combo * rounds // combos) % rounds


def _in_slice(rng: random.Random, lo: int, hi: int, slice_: int, slices: int) -> int:
    """A uniform draw from the slice-th of ``slices`` equal parts of [lo, hi)."""
    width = hi - lo
    return lo + (width * slice_ + rng.randrange(width)) // slices


def _spread(count: int) -> list[int]:
    """A permutation of range(count) whose every prefix is spread evenly."""
    golden = (5**0.5 - 1) / 2
    ranks = sorted(range(count), key=lambda i: (i * golden) % 1)
    order = [0] * count
    for rank, i in enumerate(ranks):
        order[i] = rank
    return order


def _stratified_draws(rng: random.Random, entries: list[dict], slots: int, cost) -> list[dict]:
    """``slots`` entries, one from each of ``slots`` equal runs of
    ``entries`` sorted by ``cost``, in an order whose every prefix mixes
    cheap and costly ones."""
    ranked = sorted(entries, key=cost)
    strata = [ranked[len(ranked) * s // slots : len(ranked) * (s + 1) // slots] for s in range(slots)]
    return [rng.choice(strata[rank]) for rank in _spread(slots)]


def _nodes(entry: dict) -> int:
    return entry["nodes"]


def _spec_payload(eigenvalues, norms_sq) -> dict:
    return {
        "dim": len(eigenvalues),
        "eigenvalues": [format_rational(v) for v in eigenvalues],
        "norms_squared": [format_rational(v) for v in norms_sq],
    }


# --- tight-large -----------------------------------------------------------

TIGHT_ROUNDS = 32
TIGHT_DIM = (300, 601)


def tight_large(seed: int, rounds: int = TIGHT_ROUNDS, dims=TIGHT_DIM) -> list[Item]:
    """Unit-norm tight specs, N in [300, 600], half with redundancy (2L-1)/L
    and half with redundancy in [2, 2.5]; ``norms_squared`` written in full."""
    rng = random.Random(f"tight-large:{seed}")
    items = []
    for index, (combo, slice_) in enumerate(_schedule(rounds, 2)):
        dim = _in_slice(rng, dims[0], dims[1], slice_, rounds)
        if combo == 0:
            ell = rng.randint(2, 6)
            dim -= dim % ell
            count = dim * (2 * ell - 1) // ell
        else:
            count = 2 * dim + rng.randrange(dim // 2 + 1)
        bound = Fraction(count, dim)
        payload = _spec_payload((bound,) * dim, (Fraction(1),) * count)
        items.append(Item(f"t{index:03d}", payload, READY))
    return items


# --- mixed-rational --------------------------------------------------------

MIXED_ROUNDS = 32
MIXED_DIM = (10, 41)
# Norm styles: decimal strings with 1, 2 or 3 fractional digits under the
# documented "norms" key, or small exact rationals under "norms_squared".
MIXED_STYLES = ("decimal-1", "decimal-2", "decimal-3", "rational")
MIXED_EXPECT = (READY, READY, READY, REJECTED)
MIXED_CATALOG = Path(__file__).with_name("mixed_catalog.json")


def _draw_norm(rng: random.Random, style: str) -> tuple[Fraction, str | None]:
    """(squared norm, decimal text or None) for one vector."""
    if style == "rational":
        den = rng.randint(1, 6)
        return Fraction(rng.randint(1, 3 * den), den), None
    digits = int(style[-1])
    scale = 10**digits
    units = rng.randint(scale // 10 + 1, 2 * scale)  # a norm in (0.1, 2]
    text = f"{units // scale}.{units % scale:0{digits}d}"
    return Fraction(units, scale) ** 2, text


def cursor_run(rng: random.Random, dim: int, draw, block_x):
    """A spec the constructor accepts, read off a random cursor run.

    Each row takes 0-3 singletons and, except on the last row, may close
    with a 2x2 block whose first column exceeds the residual x and whose
    partner is at least x.  ``draw()`` returns (squared norm, tag) and
    ``block_x(first, second)`` such an x, or None if the pair admits none.
    Returns (eigenvalues, [(squared norm, tag), ...]).
    """
    eigenvalues: list[Fraction] = []
    columns: list = []
    carry = Fraction(0)
    for row in range(dim):
        mass = carry
        for _ in range(rng.randint(0, 3)):
            column = draw()
            columns.append(column)
            mass += column[0]
        if row < dim - 1 and (mass == 0 or rng.random() < 0.6):
            x = None
            while x is None:
                first, second = draw(), draw()
                x = block_x(first[0], second[0])
            columns.extend([first, second])
            mass += x
            carry = first[0] + second[0] - x
        else:
            carry = Fraction(0)
            if mass == 0:
                column = draw()
                columns.append(column)
                mass = column[0]
        eigenvalues.append(mass)
    return eigenvalues, columns


def _mixed_payload(eigenvalues, columns, style: str) -> dict:
    payload = {"dim": len(eigenvalues), "eigenvalues": [format_rational(v) for v in eigenvalues]}
    if style == "rational":
        payload["norms_squared"] = [format_rational(sq) for sq, _ in columns]
    else:
        payload["norms"] = [text for _, text in columns]
    return payload


def _reject_shuffle(rng: random.Random, eigenvalues, columns):
    """Shuffle norms (and, failing that, eigenvalues) until check_ready rejects."""
    for attempt in range(64):
        columns = columns[:]
        rng.shuffle(columns)
        if attempt >= 32:
            eigenvalues = eigenvalues[:]
            rng.shuffle(eigenvalues)
        spec = FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=tuple(sq for sq, _ in columns))
        if not check_ready(spec).ready:
            return eigenvalues, columns
    raise RuntimeError("no rejected shuffle found")


def mixed_spec(style: str, expect: str, key: int) -> dict:
    """The spec payload of one mixed-rational catalog key: a cursor run with
    N drawn from [10, 40], shuffled until rejected if ``expect`` says so."""
    rng = random.Random(f"mixed-rational:{style}:{expect}:{key}")
    eigenvalues, columns = cursor_run(
        rng,
        rng.randrange(*MIXED_DIM),
        lambda: _draw_norm(rng, style),
        lambda a, b: min(a, b) * Fraction(rng.randint(1, 9), 10),
    )
    if expect == REJECTED:
        eigenvalues, columns = _reject_shuffle(rng, eigenvalues, columns)
    return _mixed_payload(eigenvalues, columns, style)


def mixed_rational(seed: int, rounds: int = MIXED_ROUNDS) -> list[Item]:
    """Cursor-run specs in four norm styles, one in four shuffled so that
    check_ready rejects it.  Specs are drawn from the catalog (see
    make_catalog.py), evenly over float fallback and op time."""
    rng = random.Random(f"mixed-rational:{seed}")
    catalog = json.loads(MIXED_CATALOG.read_text(encoding="utf-8"))
    combos = [(style, expect) for expect in MIXED_EXPECT for style in MIXED_STYLES]
    draws = {
        stratum: iter(
            _stratified_draws(
                rng,
                catalog[",".join(stratum)],
                rounds * combos.count(stratum),
                lambda entry: (not entry["float"], entry["ms"]),
            )
        )
        for stratum in dict.fromkeys(combos)
    }
    items = []
    for index, (combo, _) in enumerate(_schedule(rounds, len(combos))):
        style, expect = combos[combo]
        payload = mixed_spec(style, expect, next(draws[style, expect])["key"])
        items.append(Item(f"m{index:03d}", payload, expect))
    return items


# --- search-orderings ------------------------------------------------------

SEARCH_ROUNDS = 16
# In each round of eight, five multisets fail majorization and three are
# feasible.  Not half and half: a median that fell between the fast
# feasible ops and the slow exhaustive walks would jump from run to run.
SEARCH_INFEASIBLE = 5
SEARCH_COMBOS = 8
SEARCH_CATALOG = Path(__file__).with_name("search_catalog.json")


def search_orderings(seed: int, rounds: int = SEARCH_ROUNDS) -> list[Item]:
    """8-9 integer squared norms and 4 eigenvalues per item, drawn from the
    catalog (see make_catalog.py): shuffled cursor runs, which are feasible,
    and multisets that fail majorization, evenly over walk size."""
    rng = random.Random(f"search-orderings:{seed}")
    catalog = json.loads(SEARCH_CATALOG.read_text(encoding="utf-8"))
    infeasible = iter(_stratified_draws(rng, catalog["infeasible"], rounds * SEARCH_INFEASIBLE, _nodes))
    feasible_slots = rounds * (SEARCH_COMBOS - SEARCH_INFEASIBLE)
    feasible = iter(_stratified_draws(rng, catalog["feasible"], feasible_slots, _nodes))
    items = []
    for index, (combo, _) in enumerate(_schedule(rounds, SEARCH_COMBOS)):
        expect = INFEASIBLE if combo < SEARCH_INFEASIBLE else FEASIBLE
        entry = next(infeasible if expect == INFEASIBLE else feasible)
        eigenvalues = [Fraction(v) for v in entry["eigenvalues"]]
        norms = [Fraction(v) for v in entry["norms_squared"]]
        rng.shuffle(eigenvalues)
        rng.shuffle(norms)
        payload = _spec_payload(eigenvalues, norms)
        items.append(Item(f"s{index:03d}", payload, expect))
    return items


WORKLOADS = {
    "tight-large": tight_large,
    "mixed-rational": mixed_rational,
    "search-orderings": search_orderings,
}
