"""Command-line interface.

Commands: construct, check, search, verify, feasible, equal-norm.
Exit codes: 0 success, 1 usage or I/O or invalid input (including trace
mismatch), 2 infeasible / not ready / verification failure, 3 search
budget exhausted; an error's code is its ``exit_code``.  ``construct``
reports the readiness violation the constructor stops on, so it needs
no separate check.  Exact verification never falls back to float mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formats
from .construct import equal_norm_frame, pnstc, unit_tight_feasible
from .errors import ConstructionStuckError, SpectralTetrisError, ZeroRowError
from .readiness import FrameSpec, check_ready
from .scalar import format_rational, parse_rational
from .search import DEFAULT_BUDGET, DEFAULT_MAX_RESULTS, SearchRequest, find_ready_orderings
from .verify import DEFAULT_FLOAT_TOL, verify_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


def _emit(payload) -> None:
    sys.stdout.write(formats.canonical_json(payload))


def _violation_payload(report) -> dict | None:
    if report.violation is None:
        return None
    k, condition = report.violation
    return {"k": k, "condition": condition.value, "detail": report.detail}


def cmd_construct(args) -> int:
    spec, warnings = formats.load_spec_file(args.spec)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    try:
        matrix = pnstc(spec)
    except ConstructionStuckError as exc:
        k, condition = exc.violation
        print(f"not ready: violation at k={k}: {condition.value} ({exc})", file=sys.stderr)
        return EXIT_INFEASIBLE
    # render every output before opening any, so a failed render (a CSV
    # value beyond the double range) leaves no file behind
    outputs = [(args.out, formats.dump_matrix_file(matrix, spec, reproducible=args.reproducible))]
    if args.float_csv:
        outputs.append((args.float_csv, formats.dump_float_csv(matrix)))
    for path, text in outputs:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    print(f"wrote {matrix.dim}x{matrix.count} matrix ({len(matrix.entries)} nonzeros) to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    spec, warnings = formats.load_spec_file(args.spec)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    report = check_ready(spec)
    payload = {
        "ready": report.ready,
        "partition": list(report.partition.cuts) if report.partition else None,
        "violation": _violation_payload(report),
    }
    if args.json:
        _emit(payload)
    elif report.ready:
        cuts = ",".join(str(c) for c in report.partition.cuts)
        print(f"ready (partition {cuts})")
    else:
        k, condition = report.violation
        print(f"not ready: violation at k={k}: {condition.value} ({report.detail})")
    if report.ready:
        return EXIT_OK
    if report.violation[1].value == "trace-mismatch":
        return EXIT_USAGE
    return EXIT_INFEASIBLE


def cmd_search(args) -> int:
    spec, warnings = formats.load_spec_file(args.spec)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    request = SearchRequest(
        norms_sq=spec.norms_sq,
        eigenvalues=spec.eigenvalues,
        max_results=args.max_results,
        budget=args.budget,
    )
    result = find_ready_orderings(request)
    _emit(
        {
            "orderings": [
                {
                    "norms_squared": [format_rational(v) for v in norms],
                    "eigenvalues": [format_rational(v) for v in eigs],
                }
                for norms, eigs in result.orderings
            ],
            "exhausted": result.exhausted,
            "budget_exhausted": result.budget_exhausted,
            "nodes_used": result.nodes_used,
        }
    )
    if result.budget_exhausted and not result.orderings:
        return EXIT_BUDGET
    if result.orderings:
        return EXIT_OK
    return EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    if args.matrix.endswith(".csv"):
        matrix = formats.load_float_csv(args.matrix)
        if args.mode == "exact":
            print("warning: CSV input is float data; verifying in float mode", file=sys.stderr)
            args.mode = "float"
        embedded = None
    else:
        with open(args.matrix, encoding="utf-8") as handle:
            payload = json.load(handle)
        matrix = formats.matrix_from_payload(payload)
        embedded = formats.spec_from_matrix_metadata(payload)
    spec = embedded
    if args.spec:
        spec, _ = formats.load_spec_file(args.spec)
    try:
        report = verify_matrix(matrix, spec, mode=args.mode, tol=args.tol)
    except ZeroRowError as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    payload = {
        "rowSquareSums": [format_rational(v) for v in report.row_square_sums],
        "colSquareSums": [format_rational(v) for v in report.col_square_sums],
        "orthogonal": report.orthogonal,
        "orthogonalityMode": report.orthogonality_mode,
        "nnz": report.nnz,
        "frameBounds": (
            [format_rational(report.frame_bounds[0]), format_rational(report.frame_bounds[1])]
            if report.frame_bounds
            else None
        ),
        "matchesSpec": report.matches_spec,
    }
    _emit(payload)
    ok = report.matches_spec if spec is not None else report.orthogonal
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_feasible(args) -> int:
    verdict = unit_tight_feasible(args.vectors, args.dim)
    _emit(
        {
            "feasible": verdict.feasible,
            "reducedForm": {"num": verdict.reduced[0], "den": verdict.reduced[1]},
            "witnessL": verdict.witness_l,
            "failingK": verdict.failing_k,
        }
    )
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def cmd_equal_norm(args) -> int:
    eigenvalues = [parse_rational(part) for part in args.eigenvalues.split(",")]
    r, matrix = equal_norm_frame(eigenvalues, r_override=args.r)
    norm_sq = sum(eigenvalues, Fraction(0)) / (r * r)
    spec = FrameSpec(eigenvalues=tuple(eigenvalues), norms_sq=(norm_sq,) * (r * r))
    text = formats.dump_matrix_file(matrix, spec, reproducible=args.reproducible)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"r={r}: wrote {matrix.dim}x{matrix.count} matrix to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-tetris",
        description="Sparse frame synthesis matrices with prescribed spectrum and norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a synthesis matrix from a spec file")
    p.add_argument("spec", help="spec JSON path")
    p.add_argument("out", help="output matrix JSON path")
    p.add_argument("--float-csv", dest="float_csv", help="also write a float CSV dump")
    p.add_argument("--reproducible", action="store_true", help="omit the generator stamp")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="readiness verdict for a spec file")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="search ready orderings of the spec's multisets")
    p.add_argument("spec")
    p.add_argument("--max-results", type=int, default=DEFAULT_MAX_RESULTS)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="verify a matrix file (JSON or CSV)")
    p.add_argument("matrix")
    p.add_argument("--spec", help="spec JSON to compare against")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", type=float, default=DEFAULT_FLOAT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feasible", help="unit-norm tight frame feasibility")
    p.add_argument("--vectors", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("equal-norm", help="equal-norm frame for a decreasing spectrum")
    p.add_argument("--eigenvalues", required=True, help="comma-separated rationals, decreasing")
    p.add_argument("--r", type=int, default=None, help="override the scaling integer r")
    p.add_argument("--out", help="output matrix JSON path (default: stdout)")
    p.add_argument("--reproducible", action="store_true")
    p.set_defaults(func=cmd_equal_norm)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError, SpectralTetrisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
