"""File formats: spec JSON, matrix JSON, float CSV.

All JSON is emitted UTF-8 with LF line endings and sorted keys, so
identical inputs give byte-identical outputs.  The only non-canonical
field is the generator stamp, which ``reproducible=True`` omits.

Spec file::

    {"dim": 4, "eigenvalues": ["15", "4", "1", "4"],
     "norms_squared": ["9", "4", "3", "3", "1", "4"]}

with exactly one of ``norms_squared`` (exact), ``norms`` (decimal
strings, squared then rounded to denominator <= 10^6 with a warning) or
``unit: true`` (all ones).

Matrix file: entries sorted by (col, row), no explicit zeros, each entry
``{"row": r, "col": c, "sign": s, "rad": {"num": p, "den": q}}``.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Any

from . import __version__
from .construct import BlockKind, BlockRecord, SynthesisMatrix
from .readiness import FrameSpec
from .scalar import RadicalScalar, format_rational, parse_rational

GENERATOR_NAME = "spectral-tetris"
GENERATOR_VERSION = __version__

NORM_DENOMINATOR_LIMIT = 10**6


def _parsed_json(what: str):
    """Report malformed parsed JSON as ValueError.

    Indexing a payload of the wrong shape raises KeyError, TypeError and
    the like; the decorated parser turns them into one ValueError naming
    the file kind, so the CLI answers with a one-line error.
    """

    def decorate(parse):
        @functools.wraps(parse)
        def checked(payload):
            try:
                return parse(payload)
            except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed {what}: {exc!r}") from exc

        return checked

    return decorate


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def rational_to_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(payload: dict) -> Fraction:
    return Fraction(int(payload["num"]), int(payload["den"]))


def radical_to_json(value: RadicalScalar) -> dict[str, Any]:
    return {"sign": value.sign, "rad": rational_to_json(value.radicand)}


def radical_from_json(payload: dict) -> RadicalScalar:
    return RadicalScalar(int(payload["sign"]), rational_from_json(payload["rad"]))


@_parsed_json("spec file")
def parse_spec_payload(payload: dict) -> tuple[FrameSpec, list[str]]:
    """Build a FrameSpec from a parsed spec file; returns (spec, warnings)."""
    warnings: list[str] = []
    if "dim" not in payload or "eigenvalues" not in payload:
        raise ValueError("spec file needs 'dim' and 'eigenvalues'")
    eigenvalues = tuple(parse_rational(str(v)) for v in payload["eigenvalues"])
    if int(payload["dim"]) != len(eigenvalues):
        raise ValueError(
            f"dim is {payload['dim']} but {len(eigenvalues)} eigenvalues were given"
        )
    provided = [key for key in ("norms_squared", "norms", "unit") if payload.get(key)]
    if len(provided) != 1:
        raise ValueError("provide exactly one of norms_squared, norms, unit")
    if provided[0] == "norms_squared":
        norms_sq = tuple(parse_rational(str(v)) for v in payload["norms_squared"])
    elif provided[0] == "norms":
        norms_sq = []
        for text in payload["norms"]:
            exact = Fraction(str(text)) ** 2
            rounded = exact.limit_denominator(NORM_DENOMINATOR_LIMIT)
            if rounded != exact:
                warnings.append(
                    f"norm {text}: squared value {exact} rounded to {rounded}"
                )
            norms_sq.append(rounded)
        norms_sq = tuple(norms_sq)
        warnings.insert(
            0,
            "decimal norms are a lossy input path; pass norms_squared for exact results",
        )
    else:
        total = sum(eigenvalues, Fraction(0))
        if total.denominator != 1 or total <= 0:
            raise ValueError(
                f"unit norms need the eigenvalues to sum to a positive integer, got {total}"
            )
        norms_sq = (Fraction(1),) * int(total)
    return FrameSpec(eigenvalues=eigenvalues, norms_sq=norms_sq), warnings


def load_spec_file(path: str) -> tuple[FrameSpec, list[str]]:
    with open(path, encoding="utf-8") as handle:
        return parse_spec_payload(json.load(handle))


def matrix_to_payload(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    reproducible: bool = False,
) -> dict:
    metadata: dict[str, Any] = {
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
            {"row": r, "col": c, **radical_to_json(value)}
            for (r, c), value in matrix.nonzero_items()
        ],
        "metadata": metadata,
    }


def dump_matrix_file(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    reproducible: bool = False,
) -> str:
    return canonical_json(matrix_to_payload(matrix, spec, reproducible))


@_parsed_json("matrix file")
def matrix_from_payload(payload: dict) -> SynthesisMatrix:
    """Build a matrix from a parsed matrix file.

    Raises ValueError unless the payload is an object with ``dim`` and
    ``count`` (both at least 1) and ``entries``, every entry lies inside
    the matrix and no cell appears twice.
    """
    if not isinstance(payload, dict) or not {"dim", "count", "entries"} <= payload.keys():
        raise ValueError("a matrix file is an object with 'dim', 'count' and 'entries'")
    dim, count = int(payload["dim"]), int(payload["count"])
    if dim < 1 or count < 1:
        raise ValueError(f"matrix dimensions must be positive, got {dim}x{count}")
    cells = set()
    entries = {}
    for item in payload["entries"]:
        cell = (int(item["row"]), int(item["col"]))
        if not (0 <= cell[0] < dim and 0 <= cell[1] < count):
            raise ValueError(f"entry {cell} lies outside the {dim}x{count} matrix")
        if cell in cells:
            raise ValueError(f"entry {cell} appears twice")
        cells.add(cell)
        value = radical_from_json(item)
        if not value.is_zero():
            entries[cell] = value
    log = []
    for record in payload.get("metadata", {}).get("blockLog", []):
        log.append(
            BlockRecord(
                kind=BlockKind(record["kind"]),
                rows=tuple(record["rowSpan"]),
                cols=tuple(record["colSpan"]),
            )
        )
    return SynthesisMatrix(dim=dim, count=count, entries=entries, block_log=tuple(log))


def load_matrix_file(path: str) -> SynthesisMatrix:
    with open(path, encoding="utf-8") as handle:
        return matrix_from_payload(json.load(handle))


@_parsed_json("matrix file metadata")
def spec_from_matrix_metadata(payload: dict) -> FrameSpec | None:
    metadata = payload.get("metadata", {})
    if "eigenvalues" in metadata and "norms_squared" in metadata:
        return FrameSpec(
            eigenvalues=tuple(parse_rational(v) for v in metadata["eigenvalues"]),
            norms_sq=tuple(parse_rational(v) for v in metadata["norms_squared"]),
        )
    return None


def dump_float_csv(matrix: SynthesisMatrix) -> str:
    """Row-major decimal dump with 17 significant digits."""
    lines = []
    for row in matrix.to_float_rows():
        lines.append(",".join(f"{value:.17g}" for value in row))
    return "\n".join(lines) + "\n"


def load_float_csv(path: str) -> SynthesisMatrix:
    """Read a plain CSV of finite decimals; every value is representable
    exactly as sign * sqrt(value^2) so squared sums stay exact."""
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError("empty CSV matrix")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged CSV matrix")
    if not all(math.isfinite(value) for row in rows for value in row):
        raise ValueError("CSV matrix values must be finite")
    entries = {}
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            if value != 0.0:
                sign = 1 if value > 0 else -1
                entries[(r, c)] = RadicalScalar(sign, Fraction(value) ** 2)
    return SynthesisMatrix(dim=len(rows), count=width, entries=entries, block_log=())
