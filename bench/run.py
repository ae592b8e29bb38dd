"""Benchmark of the spectral-tetris CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload tight-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one thread, one closed-loop client: each op starts when the
previous one (and the checks on its outputs) has finished.  The program
is the real CLI, driven in-process through ``spectral_tetris.cli.main``
on spec files generated from ``--seed``.  A pipeline op is ``construct``
then ``verify`` of the written matrix; a search op is one ``search``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` wraps the library's functions at the module attributes the
CLI calls them through (see tracing.py), prints the per-layer metrics and
writes the spans to ``.bench_out/``.  After its first pass it pairs every
traced op with an untraced one, which gives the tracing overhead.
``--workload all`` runs every workload both ways in child processes and
prints one table.  The last line of a single-workload run is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run makes at least one full pass over its pool of inputs, then
goes on until ``--seconds`` have passed.  Exact counts come from that
first pass, so they repeat exactly for a seed; times come from all ops.
Every time is scaled to a reference speed by a kernel timed between ops
(see speed.py), because the host's own speed swings too far for raw
times to repeat.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3  # set-up is repeated and its median reported
WARMUP_OPS = 4
ENVIRONMENT_NOTE = (
    "no CPU pinning, cache dropping or CPU frequency control; "
    "times are scaled to a reference speed by a kernel timed between ops (speed.py)"
)


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    definition = load_definition()
    args = parse_args(argv, [w["name"] for w in definition["workloads"]])
    if args.workload == "all":
        return summary(args, definition)
    if not (SRC / "spectral_tetris" / "cli.py").is_file():
        print(f"error: no spectral_tetris sources under {SRC}", file=sys.stderr)
        return 2
    # The default factor bound, so that float fallbacks show.
    factor_bound_env = os.environ.pop("ST_FACTOR_BOUND", None)

    import speed as speed_module

    speed = speed_module.Speed()
    sys.path.insert(0, str(SRC))
    modules, import_s = speed.timed(
        lambda: {
            name: importlib.import_module(f"spectral_tetris.{name}")
            for name in ("cli", "construct", "formats", "search", "verify")
        }
    )
    cli = modules["cli"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: spectral_tetris was imported from {cli.__file__}", file=sys.stderr)
        return 2
    import ops
    import tracing
    import workloads

    generate = workloads.WORKLOADS[args.workload]
    is_search = args.workload == "search-orderings"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    setups = []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            items, elapsed = speed.timed(lambda: generate(args.seed))
            warmup = ops.Runner(cli, is_search, items, work)
            elapsed += speed.timed(warmup.write_specs)[1]
            for index in range(WARMUP_OPS):
                elapsed += speed.timed(lambda: warmup.run(index))[1]
            setups.append(elapsed)
        if tracer is not None:
            tracer.install(modules)
        runner = ops.Runner(cli, is_search, items, work, tracer)
        outcomes = []
        untraced = []  # traced runs only: the untraced half of each pair
        # per list, the index of the kernel sample taken just before each op
        marks = {True: [], False: []}

        def step(index, traced=True):
            marks[traced].append(speed.sample())
            (outcomes if traced else untraced).append(runner.run(index, traced))

        deadline = perf_counter() + args.seconds
        while len(outcomes) < len(items) or perf_counter() < deadline:
            index = len(outcomes)
            if tracer is None or index < len(items):
                step(index)
                continue
            # After the first pass, a traced run pairs each traced op with an
            # untraced op on the same item, in alternating order, so that
            # the tracing overhead is measured over the same stretch of time.
            for traced in (index % 2 == 0, index % 2 == 1):
                step(index, traced)
        speed.sample()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    def scaled_ms(done, before):
        """Op times in ms at the reference speed, each scaled by the kernel
        samples just before and just after the op."""
        return [1000 * o.seconds * speed.factor(b, b + 2) for o, b in zip(done, before)]

    times = scaled_ms(outcomes, marks[True])
    checked = outcomes + untraced
    failures = [outcome.problem for outcome in checked if outcome.problem]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool": len(items),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_ms_mean": 1000 * statistics.fmean(speed.samples),
        "setup_parts_s": {"import": import_s, "repeats": setups},
        "unscaled_op_ms_p50": 1000 * statistics.median(outcome.seconds for outcome in outcomes),
        "ST_FACTOR_BOUND": f"unset (was {factor_bound_env!r})" if factor_bound_env else "unset",
        "note": ENVIRONMENT_NOTE,
    }
    if tracer is None:
        kind = "end_to_end"
        values = end_to_end(outcomes, times, import_s + statistics.median(setups))
    else:
        kind = "per_layer"
        plain = scaled_ms(untraced, marks[False])
        values = per_layer(tracer, runner.counts, len(items), times, plain, speed.factor())
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json", context)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition[kind]}

    print("# " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"samples {len(checked)} ops; fail_ratio {len(failures) / len(checked):.6g}")
    for problem in failures[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def end_to_end(outcomes, times, setup_s: float) -> dict:
    verifies = sum(outcome.verifies for outcome in outcomes)
    exact = sum(outcome.exact_verifies for outcome in outcomes)
    failed = sum(outcome.problem is not None for outcome in outcomes)
    return {
        "op_ms_p50": statistics.median(times),
        "op_ms_p90": statistics.quantiles(times, n=10)[8],
        "ops_per_s": 1000 * len(times) / sum(times),
        "ok_ratio": 1 - failed / len(outcomes),
        "exact_ratio": exact / verifies if verifies else 1.0,
        "decided_ratio": sum(outcome.decided for outcome in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, counts: Counter, first_pass: int, times, plain, factor: float) -> dict:
    """Per-op self times over all traced ops, scaled by ``factor`` to the
    reference speed; span counts over the first pass.  ``plain`` holds the
    untraced ops paired with the traced ops that follow the first pass, for
    the tracing overhead."""
    own = tracer.self_times()
    seconds: Counter = Counter()
    first_seconds: Counter = Counter()
    calls: Counter = Counter()
    ready = search_checks = incomplete = 0
    for (name, _, _, parent, op, outcome), self_s in zip(tracer.spans, own):
        seconds[name] += self_s
        if op >= first_pass:
            continue
        first_seconds[name] += self_s
        calls[name] += 1
        if name == "readiness.check_ready":
            ready += outcome == "ready"
            search_checks += parent >= 0 and tracer.spans[parent][0] == "search.find_ready_orderings"
        if name == "scalar.canonicalize":
            incomplete += outcome == "FactorizationIncompleteError"

    def ms(name):
        return 1000 * factor * seconds[name] / len(times)

    search_s = first_seconds["search.find_ready_orderings"]
    return {
        "cli.self_ms": ms("cli.main"),
        "formats.load_spec_ms": ms("formats.load_spec_file"),
        "formats.dump_matrix_ms": ms("formats.dump_matrix_file"),
        "formats.load_matrix_ms": ms("formats.matrix_from_payload"),
        "formats.matrix_bytes": counts["formats.matrix_bytes"],
        "formats.norm_roundings": counts["formats.norm_roundings"],
        "readiness.check_ms": ms("readiness.check_ready"),
        "readiness.check_calls": calls["readiness.check_ready"],
        "readiness.ready_ratio": ready / max(calls["readiness.check_ready"], 1),
        "construct.pnstc_ms": ms("construct.pnstc"),
        "construct.singletons": counts["construct.singletons"],
        "construct.blocks": counts["construct.blocks"],
        "construct.degenerate_blocks": counts["construct.degenerate_blocks"],
        "construct.nnz": counts["construct.nnz"],
        "construct.stuck": counts["construct.stuck"],
        "blocks.build_ms": ms("blocks.build_block"),
        "blocks.build_calls": calls["blocks.build_block"],
        "verify.verify_ms": ms("verify.verify_matrix"),
        "verify.row_pairs": counts["verify.row_pairs"],
        "verify.sharing_pairs": counts["verify.sharing_pairs"],
        "verify.useful_ratio": counts["verify.sharing_pairs"] / max(counts["verify.row_pairs"], 1),
        "verify.float_fallbacks": counts["verify.float_fallbacks"],
        "scalar.canonicalize_ms": ms("scalar.canonicalize"),
        "scalar.canonicalize_calls": calls["scalar.canonicalize"],
        "scalar.factor_incomplete": incomplete,
        "scalar.radicand_bits_max": counts["scalar.radicand_bits_max"],
        "search.ms": ms("search.find_ready_orderings"),
        "search.nodes": counts["search.nodes"],
        "search.nodes_per_s": counts["search.nodes"] / (factor * search_s) if search_s else 0.0,
        "search.heuristic_hits": counts["search.heuristic_hits"],
        "search.check_calls": search_checks,
        "search.budget_exhausted": counts["search.budget_exhausted"],
        "trace.op_ms_p50": statistics.median(times),
        "trace.overhead_ms": (
            statistics.median(times[first_pass:]) - statistics.median(plain) if plain else 0.0
        ),
    }


def summary(args, definition) -> int:
    """Run every workload untraced and traced; print one table."""
    status = 0
    for workload in definition["workloads"]:
        name = workload["name"]
        results = []
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name}: trace {trace} run exited {done.returncode}", file=sys.stderr)
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        plain, traced = results
        print(f"== {name}: {workload['why']}")
        print(
            f"   samples {plain['attempted']} ops, fail_ratio "
            f"{plain['failed'] / plain['attempted']:.6g}, correct {plain['correct']}"
        )
        for kind, result in (("end-to-end", plain), ("per-layer", traced)):
            for metric, entry in result["metrics"].items():
                print(f"   {kind:10} {metric:28} {entry['value']:>14.6g} {entry['unit']}")
        status |= not (plain["correct"] and traced["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
