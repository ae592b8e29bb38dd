"""Tests of the benchmark's own code: generators, catalog and exact counts.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectral_tetris import cli, construct, formats, search, verify  # noqa: E402
from spectral_tetris.readiness import FrameSpec, check_ready, majorizes  # noqa: E402
from spectral_tetris.search import SearchRequest, find_ready_orderings  # noqa: E402

MODULES = {"cli": cli, "construct": construct, "formats": formats, "search": search, "verify": verify}
# Small pools: one or two rounds, smaller dimensions.
SMALL = {
    "tight-large": lambda seed: workloads.tight_large(seed, rounds=2, dims=(30, 61)),
    "mixed-rational": lambda seed: workloads.mixed_rational(seed, rounds=1),
    "search-orderings": lambda seed: workloads.search_orderings(seed, rounds=1),
}


def _spec(item: workloads.Item) -> FrameSpec:
    return formats.parse_spec_payload(item.payload)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_spec_files(name, tmp_path):
    def write(seed, directory):
        directory.mkdir()
        runner = ops.Runner(cli, name == "search-orderings", workloads.WORKLOADS[name](seed), directory)
        runner.write_specs()
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    first = write(7, tmp_path / "a")
    assert first == write(7, tmp_path / "b")
    assert first != write(8, tmp_path / "c")


@pytest.mark.parametrize("name", ["tight-large", "mixed-rational"])
def test_pipeline_specs_have_the_readiness_they_were_built_for(name):
    items = workloads.WORKLOADS[name](3)
    for item in items:
        assert check_ready(_spec(item)).ready == (item.expect == workloads.READY), item.name
    rejected = sum(item.expect == workloads.REJECTED for item in items)
    assert rejected == (len(items) // 4 if name == "mixed-rational" else 0)


def test_cursor_runs_are_ready_before_any_shuffle():
    rng = random.Random(0)
    for dim in (1, 2, 5, 30):
        for style in workloads.MIXED_STYLES:
            eigenvalues, columns = workloads.cursor_run(
                rng,
                dim,
                lambda: workloads._draw_norm(rng, style),
                lambda a, b: min(a, b) * Fraction(rng.randint(1, 9), 10),
            )
            spec = FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=tuple(sq for sq, _ in columns))
            assert check_ready(spec).ready


def test_search_multisets_are_feasible_or_fail_majorization_as_labelled():
    items = workloads.search_orderings(5)
    assert sum(item.expect == workloads.INFEASIBLE for item in items) == 5 * len(items) // 8
    for item in items:
        spec = _spec(item)
        assert len(spec.eigenvalues) == 4 and len(spec.norms_sq) in (8, 9)
        if item.expect == workloads.INFEASIBLE:
            assert not majorizes(spec.eigenvalues, spec.norms_sq), item.name
        else:
            request = SearchRequest(norms_sq=spec.norms_sq, eigenvalues=spec.eigenvalues, max_results=1)
            assert find_ready_orderings(request).orderings, item.name


def test_search_catalog_entries_are_what_their_section_says():
    import make_catalog

    catalog = json.loads(workloads.SEARCH_CATALOG.read_text(encoding="utf-8"))
    bands = [entry["band"] for entry in catalog["infeasible"]]
    assert sorted(set(bands)) == list(range(make_catalog.BANDS))
    for entry in catalog["infeasible"]:
        assert not majorizes(entry["eigenvalues"], entry["norms_squared"])
        assert make_catalog.band_of(entry["nodes"]) == entry["band"]
    for entry in catalog["feasible"]:
        assert majorizes(entry["eigenvalues"], entry["norms_squared"])
        assert entry["nodes"] <= make_catalog.FEASIBLE_NODES


def test_mixed_catalog_has_every_key_of_every_stratum():
    import make_catalog

    catalog = json.loads(workloads.MIXED_CATALOG.read_text(encoding="utf-8"))
    strata = {f"{style},{expect}" for style in workloads.MIXED_STYLES for expect in workloads.MIXED_EXPECT}
    assert set(catalog) == strata
    for stratum, entries in catalog.items():
        assert [entry["key"] for entry in entries] == list(range(make_catalog.MIXED_KEYS))
        assert all(entry["ms"] > 0 for entry in entries)
        if stratum.endswith(workloads.REJECTED):
            assert not any(entry["float"] for entry in entries)


def test_mixed_pools_have_the_same_number_of_float_fallbacks_within_one():
    catalog = json.loads(workloads.MIXED_CATALOG.read_text(encoding="utf-8"))
    falls_back = {
        json.dumps(workloads.mixed_spec("decimal-3", workloads.READY, entry["key"]), sort_keys=True)
        for entry in catalog[f"decimal-3,{workloads.READY}"]
        if entry["float"]
    }
    counts = [
        sum(json.dumps(item.payload, sort_keys=True) in falls_back for item in workloads.mixed_rational(seed))
        for seed in range(1, 6)
    ]
    # Only the run of the sorted catalog that holds the last fallback mixes both.
    assert min(counts) > 0 and max(counts) - min(counts) <= 1


def _first_pass_counts(name: str, seed: int, work: Path) -> dict:
    items = SMALL[name](seed)
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        runner = ops.Runner(cli, name == "search-orderings", items, work, tracer)
        runner.write_specs()
        outcomes = [runner.run(index) for index in range(len(items))]
    finally:
        tracer.restore()
    assert [outcome.problem for outcome in outcomes] == [None] * len(items)
    metrics = run.per_layer(tracer, runner.counts, len(items), [o.seconds * 1000 for o in outcomes], [], 1.0)
    definition = run.load_definition()
    exact = [m["name"] for m in definition["per_layer"] if m["unit"] not in ("ms", "1/s")]
    return {key: metrics[key] for key in exact}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_across_runs_with_one_seed(name, tmp_path):
    first = _first_pass_counts(name, 11, tmp_path / "a")
    assert first == _first_pass_counts(name, 11, tmp_path / "b")
    if name == "search-orderings":
        assert first["search.nodes"] > 0
    else:
        assert first["verify.row_pairs"] > 0 and first["construct.nnz"] > 0


def test_tracer_restores_every_call_site():
    originals = [getattr(MODULES[m], a) for m, a, _, _ in tracing.CALL_SITES]
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    wrapped = [getattr(MODULES[m], a) for m, a, _, _ in tracing.CALL_SITES]
    tracer.restore()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(MODULES[m], a) for m, a, _, _ in tracing.CALL_SITES] == originals


def test_self_time_subtracts_the_time_children_cover():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, 0, "ok"],
        ["construct.pnstc", 1.0, 4.0, 0, 0, "ok"],
        ["blocks.build_block", 2.0, 3.0, 1, 0, "ok"],
        ["verify.verify_matrix", 5.0, 6.0, 0, 0, "ok"],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_speed_factor_is_reference_over_mean_kernel_time():
    timer = speed.Speed()
    timer.samples = [0.001, 0.003, 0.002]
    assert timer.factor(0, 2) == pytest.approx(speed.REFERENCE_MS / 2)
    assert timer.factor(1) == pytest.approx(speed.REFERENCE_MS / 2.5)
    assert timer.sample() == 3 and len(timer.samples) == 4
    result, seconds = timer.timed(lambda: "done")
    assert result == "done" and seconds >= 0 and len(timer.samples) == 6
