"""Regenerate the catalogs the search-orderings and mixed-rational workloads
draw their inputs from.

The op costs of these workloads spread widely from input to input, so a
pool drawn at random would put a different mix of cheap and costly ops in
each seed's run.  A catalog sorts candidate inputs into bands of cost, and
a pool draws as many inputs from every band as from any other; the seed
chooses which ones.  The costs only sort entries: later changes to the
program leave the catalogs, and so the workloads, as they are.

    python3 bench/make_catalog.py search   # search_catalog.json, about ten minutes
    python3 bench/make_catalog.py mixed    # mixed_catalog.json, a few minutes

``search_catalog.json``: every entry is a multiset of 8 or 9 integer squared norms and 4 integer
eigenvalues with equal sums, stored with the node count its search needed
(``max_results`` 1, default budget) when the catalog was made.

* ``infeasible``: multisets whose top-k norms outweigh the top-k
  eigenvalues for some k, so they fail majorization and the search must
  walk until it has ruled out every ordering.  They are kept in bands of
  walk size, log-spaced over ``NODES``, with ``PER_BAND`` in each band,
  so that a seed can draw the same mix of small and large walks as any
  other seed.
* ``feasible``: cursor runs with 4 rows, feasible by construction, whose
  search ended within ``FEASIBLE_NODES`` nodes (in the heuristics or a
  short walk).  The rare cursor runs that need a long walk are left out,
  so that a few of them cannot decide a run's throughput.

``mixed_catalog.json``: for each stratum of the mixed-rational workload
(norm style, ready or rejected), ``MIXED_KEYS`` keys of
:func:`workloads.mixed_spec`, each with the median wall time of three
``construct`` + ``verify`` ops through the CLI and whether its verify fell
back to float mode.  Those times come from the machine that made the
catalog; a pool draws evenly over the fallback flag and the times.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spectral_tetris.readiness import majorizes  # noqa: E402
from spectral_tetris.search import SearchRequest, find_ready_orderings  # noqa: E402
from spectral_tetris import cli  # noqa: E402
from ops import Runner  # noqa: E402
from workloads import (  # noqa: E402
    MIXED_CATALOG,
    MIXED_STYLES,
    READY,
    REJECTED,
    SEARCH_CATALOG,
    Item,
    cursor_run,
    mixed_spec,
)

EIGENVALUES = 4
NODES = (500, 37_000)
BANDS = 20
PER_BAND = 16
FEASIBLE = 192
FEASIBLE_NODES = 500
NORM_TOP = 6  # largest squared norm in a feasible cursor run
MIXED_KEYS = 128
REPEATS = 3


def band_of(nodes: int) -> int | None:
    lo, hi = NODES
    if not lo <= nodes < hi:
        return None
    return int(BANDS * math.log(nodes / lo) / math.log(hi / lo))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def infeasible_candidate(rng: random.Random, count: int) -> tuple[list[int], list[int]]:
    top = rng.randint(3, 8)
    while True:
        eigenvalues = sorted((rng.randint(top, 3 * top) for _ in range(EIGENVALUES)), reverse=True)
        k = rng.randint(1, 3)
        heavy = sum(eigenvalues[:k]) + rng.randint(1, 2)
        rest = sum(eigenvalues) - heavy
        if rest < count - k:
            continue
        norms = (_composition(rng, heavy, k) if k > 1 else [heavy]) + _composition(
            rng, rest, count - k
        )
        if not majorizes(eigenvalues, norms):
            return eigenvalues, sorted(norms, reverse=True)


def feasible_candidate(rng: random.Random, count: int) -> tuple[list[int], list[int]]:
    while True:
        eigenvalues, columns = cursor_run(
            rng,
            EIGENVALUES,
            lambda: (Fraction(rng.randint(1, NORM_TOP)), None),
            lambda a, b: Fraction(rng.randint(1, hi)) if (hi := min(a - 1, b)) >= 1 else None,
        )
        if len(columns) == count:
            norms = sorted((int(sq) for sq, _ in columns), reverse=True)
            return sorted((int(v) for v in eigenvalues), reverse=True), norms


def _nodes(eigenvalues, norms, budget: int):
    result = find_ready_orderings(
        SearchRequest(
            norms_sq=tuple(Fraction(v) for v in norms),
            eigenvalues=tuple(Fraction(v) for v in eigenvalues),
            max_results=1,
            budget=budget,
        )
    )
    return result.nodes_used, bool(result.orderings), result.exhausted


def _entry(eigenvalues, norms, nodes, **extra) -> dict:
    return {"eigenvalues": eigenvalues, "norms_squared": norms, "nodes": nodes, **extra}


def search_catalog() -> None:
    rng = random.Random("search-catalog")
    seen = set()

    def fresh(eigenvalues, norms) -> bool:
        key = (tuple(eigenvalues), tuple(norms))
        if key in seen:
            return False
        seen.add(key)
        return True

    bands: list[list[dict]] = [[] for _ in range(BANDS)]
    tries = 0
    while any(len(band) < PER_BAND for band in bands):
        tries += 1
        eigenvalues, norms = infeasible_candidate(rng, 8 + tries % 2)
        if not fresh(eigenvalues, norms):
            continue
        nodes, found, exhausted = _nodes(eigenvalues, norms, NODES[1])
        band = band_of(nodes) if exhausted and not found else None
        if band is not None and len(bands[band]) < PER_BAND:
            bands[band].append(_entry(eigenvalues, norms, nodes, band=band))

    feasible: list[dict] = []
    while len(feasible) < FEASIBLE:
        eigenvalues, norms = feasible_candidate(rng, 8 + len(feasible) % 2)
        if not fresh(eigenvalues, norms):
            continue
        nodes, found, _ = _nodes(eigenvalues, norms, FEASIBLE_NODES)
        if found:
            feasible.append(_entry(eigenvalues, norms, nodes))

    sections = {
        "feasible": feasible,
        "infeasible": [e for band in bands for e in sorted(band, key=lambda e: e["nodes"])],
    }
    text = ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]"
        for name, entries in sections.items()
    )
    SEARCH_CATALOG.write_text("{\n" + text + "\n}\n", encoding="utf-8")
    print(f"wrote {SEARCH_CATALOG.name}: {len(feasible)} feasible, {BANDS * PER_BAND} infeasible")


def mixed_catalog() -> None:
    work = HERE.parent / ".bench_work" / "mixed-catalog"
    sections = {}
    try:
        for expect in (READY, REJECTED):
            for style in MIXED_STYLES:
                items = [
                    Item(f"k{key:03d}", mixed_spec(style, expect, key), expect)
                    for key in range(MIXED_KEYS)
                ]
                runner = Runner(cli, False, items, work)
                runner.write_specs()
                outcomes = [runner.run(index) for index in range(REPEATS * MIXED_KEYS)]
                if any(outcome.problem for outcome in outcomes):
                    raise RuntimeError([o.problem for o in outcomes if o.problem][:3])
                ms = [
                    1000 * statistics.median(o.seconds for o in outcomes[key::MIXED_KEYS])
                    for key in range(MIXED_KEYS)
                ]
                sections[f"{style},{expect}"] = [
                    {
                        "key": key,
                        "ms": round(ms[key], 3),
                        "float": outcomes[key].verifies > outcomes[key].exact_verifies,
                    }
                    for key in range(MIXED_KEYS)
                ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]"
        for name, entries in sections.items()
    )
    MIXED_CATALOG.write_text("{\n" + text + "\n}\n", encoding="utf-8")
    print(f"wrote {MIXED_CATALOG.name}: {len(sections)} strata of {MIXED_KEYS} keys")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate a workload catalog.")
    parser.add_argument("catalog", choices=("search", "mixed"))
    {"search": search_catalog, "mixed": mixed_catalog}[parser.parse_args().catalog]()
