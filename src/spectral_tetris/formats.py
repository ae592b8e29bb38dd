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
``dump_matrix_file`` writes it directly, byte-identical to
``canonical_json`` of the same payload; the indenting JSON encoder runs
in pure Python and took most of the dump time.
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


def rational_from_json(payload: dict) -> Fraction:
    return Fraction(int(payload["num"]), int(payload["den"]))


def radical_from_json(payload: dict) -> RadicalScalar:
    return RadicalScalar(int(payload["sign"]), rational_from_json(payload["rad"]))


def _parse_each(literals) -> tuple[Fraction, ...]:
    """``parse_rational`` over a list, parsing each distinct literal once.

    Literals are parsed in list order, so a bad one is reported where the
    plain per-item loop would report it.
    """
    parsed: dict = {}
    values = []
    for text in literals:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        values.append(value)
    return tuple(values)


@_parsed_json("spec file")
def parse_spec_payload(payload: dict) -> tuple[FrameSpec, list[str]]:
    """Build a FrameSpec from a parsed spec file; returns (spec, warnings)."""
    warnings: list[str] = []
    if "dim" not in payload or "eigenvalues" not in payload:
        raise ValueError("spec file needs 'dim' and 'eigenvalues'")
    eigenvalues = _parse_each(map(str, payload["eigenvalues"]))
    if int(payload["dim"]) != len(eigenvalues):
        raise ValueError(
            f"dim is {payload['dim']} but {len(eigenvalues)} eigenvalues were given"
        )
    provided = [key for key in ("norms_squared", "norms", "unit") if payload.get(key)]
    if len(provided) != 1:
        raise ValueError("provide exactly one of norms_squared, norms, unit")
    if provided[0] == "norms_squared":
        norms_sq = _parse_each(map(str, payload["norms_squared"]))
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


# The matrix file as ``canonical_json`` renders it.  Entries and block-log
# records always have the same keys, so one format string renders each;
# the tests check the result against ``canonical_json`` byte for byte.
_ENTRY = (
    '{\n      "col": %d,\n      "rad": {\n        "den": %d,\n        "num": %d\n'
    '      },\n      "row": %d,\n      "sign": %d\n    }'
)
_BLOCK_RECORD = '{\n        "colSpan": %s,\n        "kind": "%s",\n        "rowSpan": %s\n      }'
_GENERATOR = '"generator": ' + json.dumps(
    {"name": GENERATOR_NAME, "version": GENERATOR_VERSION}, sort_keys=True, indent=2
).replace("\n", "\n    ")


def _nested(brackets: str, items: list[str], indent: str) -> str:
    """An indent-2 JSON array or object of rendered items, opened on a
    line indented by ``indent``."""
    if not items:
        return brackets
    inner = "\n  " + indent
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _span(span: tuple[int, ...]) -> str:
    return _nested("[]", [str(i) for i in span], "        ")


def _literals(values) -> str:
    # rational literals hold only digits, "-" and "/": nothing to escape
    return _nested("[]", [f'"{format_rational(v)}"' for v in values], "    ")


def dump_matrix_file(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    reproducible: bool = False,
) -> str:
    """The matrix file text: sorted keys, indent 2, as ``canonical_json``."""
    entries = [
        _ENTRY % (col, value.radicand.denominator, value.radicand.numerator, row, value.sign)
        for row, col, value in matrix.entries
    ]
    log = [
        _BLOCK_RECORD % (_span(record.cols), record.kind.value, _span(record.rows))
        for record in matrix.block_log
    ]
    # in sorted key order: blockLog, eigenvalues, generator, norms_squared
    metadata = ['"blockLog": ' + _nested("[]", log, "    ")]
    if spec is not None:
        metadata.append('"eigenvalues": ' + _literals(spec.eigenvalues))
    if not reproducible:
        metadata.append(_GENERATOR)
    if spec is not None:
        metadata.append('"norms_squared": ' + _literals(spec.norms_sq))
    top = [
        f'"count": {matrix.count:d}',
        f'"dim": {matrix.dim:d}',
        '"entries": ' + _nested("[]", entries, "  "),
        '"metadata": ' + _nested("{}", metadata, "  "),
    ]
    return _nested("{}", top, "") + "\n"


@_parsed_json("matrix file")
def matrix_from_payload(payload: dict) -> SynthesisMatrix:
    """Build a matrix from a parsed matrix file.

    Raises ValueError unless the payload is an object with ``dim``,
    ``count`` and ``entries``; :class:`SynthesisMatrix` checks the cells.
    Entries with equal raw ``(sign, num, den)`` share one value, built
    once: values are immutable, and equal raw fields convert equally.
    """
    if not isinstance(payload, dict) or not {"dim", "count", "entries"} <= payload.keys():
        raise ValueError("a matrix file is an object with 'dim', 'count' and 'entries'")
    values: dict = {}
    entries = []
    for item in payload["entries"]:
        row, col = int(item["row"]), int(item["col"])
        rad = item["rad"]
        key = (item["sign"], rad["num"], rad["den"])
        value = values.get(key)
        if value is None:
            value = values[key] = radical_from_json(item)
        entries.append((row, col, value))
    log = []
    for record in payload.get("metadata", {}).get("blockLog", []):
        log.append(
            BlockRecord(
                kind=BlockKind(record["kind"]),
                rows=tuple(map(int, record["rowSpan"])),
                cols=tuple(map(int, record["colSpan"])),
            )
        )
    return SynthesisMatrix(
        dim=int(payload["dim"]), count=int(payload["count"]), entries=entries, block_log=tuple(log)
    )


def load_matrix_file(path: str) -> SynthesisMatrix:
    with open(path, encoding="utf-8") as handle:
        return matrix_from_payload(json.load(handle))


@_parsed_json("matrix file metadata")
def spec_from_matrix_metadata(payload: dict) -> FrameSpec | None:
    metadata = payload.get("metadata", {})
    if "eigenvalues" in metadata and "norms_squared" in metadata:
        return FrameSpec(
            eigenvalues=_parse_each(metadata["eigenvalues"]),
            norms_sq=_parse_each(metadata["norms_squared"]),
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
    entries = [
        (r, c, RadicalScalar(1 if value > 0 else -1, Fraction(value) ** 2))
        for c, column in enumerate(zip(*rows))
        for r, value in enumerate(column)
        if value != 0.0
    ]
    return SynthesisMatrix(dim=len(rows), count=width, entries=entries, block_log=())
