"""Command-line interface.

Commands: construct, check, search, verify, feasible, equal-norm.
Exit codes: 0 success, 1 usage or I/O or invalid input (including trace
mismatch), 2 infeasible / not ready / verification failure, 3 search
budget exhausted; ``main`` prints every error a command stops on, once,
and exits with its ``exit_code``.  Every command reports the readiness
violation the cursor stops on, so none needs a separate check.  Exact
verification never falls back to float mode.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import formats
from .construct import equal_norm_frame, pnstc, unit_tight_feasible
from .errors import ConstructionStuckError, SpectralTetrisError, ZeroColumnError, ZeroRowError
from .readiness import Violation, check_ready
from .scalar import describe_rational, format_rational, parse_rational
from .search import DEFAULT_BUDGET, DEFAULT_MAX_RESULTS, SearchRequest, find_ready_orderings
from .verify import DEFAULT_FLOAT_TOL, require_nonzero_lines, verify_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


def _emit(payload) -> None:
    sys.stdout.write(formats.canonical_json(payload))


def _not_ready_line(violation, detail) -> str:
    k, condition = violation
    return f"not ready: violation at k={k}: {condition.value} ({detail})"


def _write_files(outputs) -> None:
    """Write every ``(path, chunks)`` pair, the chunks an iterable of text
    written in order, or leave no new file behind.
    A missing target's text goes to a temporary file beside it, renamed
    into place once all writes succeeded; an existing one (a file, a
    symlink, a device) is written through in place, as ``open(path, "w")``
    does, so it keeps its mode and links.  Errors name the target."""
    fresh: dict[str, str] = {}  # missing target -> its temporary file
    for i, (path, _) in enumerate(outputs):
        if os.path.isdir(path):  # refused before anything is written
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.exists(path):
            fresh[path] = f"{os.path.realpath(path)}.{os.getpid()}.{i}.tmp"
    try:
        # new files first: a failure there leaves every existing target as it was
        for path, chunks in sorted(outputs, key=lambda output: output[0] not in fresh):
            with open(fresh.get(path, path), "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
        for path, temp in fresh.items():
            os.replace(temp, os.path.realpath(path))
    except BaseException as exc:
        for temp in fresh.values():
            if os.path.exists(temp):
                os.remove(temp)
        if isinstance(exc, OSError):  # name the target, not its temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_spec(path: str):
    spec, warnings = formats.load_spec_file(path)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    return spec


def cmd_construct(args) -> int:
    spec = _load_spec(args.spec)
    matrix = pnstc(spec)
    # convert every value before opening any file, so a failed render (a
    # CSV value beyond the double range) leaves no file behind; the CSV's
    # lines are made one at a time as they are written
    text = formats.dump_matrix_file(matrix, spec, reproducible=args.reproducible)
    outputs = [(args.out, [text])]
    if args.float_csv:
        outputs.append((args.float_csv, formats._float_csv_lines(matrix)))
    _write_files(outputs)
    print(f"wrote {matrix.dim}x{matrix.count} matrix ({len(matrix.entries)} nonzeros) to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    report = check_ready(spec)
    violation = None
    if not report.ready:
        k, condition = report.violation
        violation = {"k": k, "condition": condition.value, "detail": report.detail}
    payload = {
        "ready": report.ready,
        "partition": list(report.partition.cuts) if report.partition else None,
        "violation": violation,
    }
    if args.json:
        _emit(payload)
    elif report.ready:
        cuts = ",".join(str(c) for c in report.partition.cuts)
        print(f"ready (partition {cuts})")
    else:
        print(_not_ready_line(report.violation, report.detail))
    if report.ready:
        return EXIT_OK
    if report.violation[1] is Violation.TRACE_MISMATCH:
        return EXIT_USAGE
    return EXIT_INFEASIBLE


def cmd_search(args) -> int:
    spec = _load_spec(args.spec)
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
        payload = {}  # a CSV has no metadata block
    else:
        payload = formats.load_json_file(args.matrix, "matrix file")
        matrix = formats.matrix_from_payload(payload)
    require_nonzero_lines(matrix)  # before anything is allocated by the file's count
    if args.spec:
        spec, _ = formats.load_spec_file(args.spec)
    else:  # the metadata block is parsed only when no --spec decides
        spec = formats.spec_from_matrix_metadata(payload)
    report = verify_matrix(matrix, spec, tol=args.tol if args.mode == "float" else None)
    # a sum too long for str reads "<about D digits>" (describe_rational).
    # verify_matrix shares one Fraction per distinct sum, so each is rendered
    # once, keyed by identity: hashing a Fraction costs more than rendering it.
    sums = {id(v): v for v in (*report.row_square_sums, *report.col_square_sums)}
    text = {key: describe_rational(v) for key, v in sums.items()}
    payload = {
        "rowSquareSums": [text[id(v)] for v in report.row_square_sums],
        "colSquareSums": [text[id(v)] for v in report.col_square_sums],
        "orthogonal": report.orthogonal,
        "orthogonalityMode": report.orthogonality_mode,
        "nnz": report.nnz,
        "frameBounds": (
            [describe_rational(bound) for bound in report.frame_bounds]
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
    r, spec, matrix = equal_norm_frame(eigenvalues, r_override=args.r)
    text = formats.dump_matrix_file(matrix, spec, reproducible=args.reproducible)
    if args.out:
        _write_files([(args.out, [text])])
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


#: Built once: parsing reads the parser and mutates only the fresh namespace
#: it returns, so calls share nothing through it.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConstructionStuckError as exc:
        print(_not_ready_line(exc.violation, exc), file=sys.stderr)
        return exc.exit_code
    except (ZeroRowError, ZeroColumnError) as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, OverflowError, ValueError, SpectralTetrisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
