"""File formats: spec JSON, matrix JSON, float CSV.

All JSON is emitted UTF-8 with LF line endings and sorted keys, so
identical inputs give byte-identical outputs.  The only non-canonical
field is the generator stamp, which ``reproducible=True`` omits.

Spec file::

    {"dim": 4, "eigenvalues": ["15", "4", "1", "4"],
     "norms_squared": ["9", "4", "3", "3", "1", "4"]}

with exactly one of ``norms_squared`` (exact), ``norms`` (decimal
strings, squared, and rounded with a warning only when the square's
denominator is past 10^6) or ``unit: true`` (all ones).  ``dim`` is an
integer, value lists are JSON arrays and ``unit`` is a boolean or null.
Each distinct literal is parsed once.  An exact literal, and a plain decimal norm such
as ``1.25``, squared on ints, make one Fraction each.

Matrix file: entries sorted by (col, row), no explicit zeros, each entry
``{"row": r, "col": c, "sign": s, "rad": {"num": p, "den": q}}``; its
metadata ``blockLog`` holds one ``{"kind": k, "rowSpan": [r0, r1],
"colSpan": [c0, c1]}`` per placed unit, each span a pair of ints.
``dump_matrix_file`` writes it directly, byte-identical to
``canonical_json`` of the same payload.  Float CSV: one line per row,
each cell a ``.17g`` decimal; the writer and the loader touch only the
nonzeros, and neither builds a dense matrix.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from itertools import compress
from typing import Any

from . import __version__
from .construct import (
    MAX_EQUAL_NORM_VECTORS,
    BlockKind,
    SynthesisMatrix,
    _block_record,
)
from .readiness import FrameSpec
from .scalar import (
    RadicalScalar,
    describe_rational,
    exact_sum,
    format_ratio,
    parse_rational,
    radical_of_ints,
)

GENERATOR_NAME = "spectral-tetris"
GENERATOR_VERSION = __version__

NORM_DENOMINATOR_LIMIT = 10**6
NORM_EXPONENT_LIMIT = 10**4


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


def _parse_each(payload: dict, key: str, parse=parse_rational) -> tuple:
    """``parse`` over the ``str`` of each item of the JSON array
    ``payload[key]``, parsing each distinct literal once; anything but an
    array raises TypeError.

    Every occurrence of a literal gets the one result made for it, so
    :class:`FrameSpec` reads a repeated literal's Fraction once.  Literals
    are parsed in list order, so a bad one is reported where the plain
    per-item loop would report it.
    """
    literals = payload[key]
    if type(literals) is not list:
        raise TypeError(f"{key!r} must be a JSON array, not {type(literals).__name__}")
    parsed: dict = {}  # literal -> result
    results = []
    for text in map(str, literals):
        result = parsed.get(text)
        if result is None:
            result = parsed[text] = parse(text)
        results.append(result)
    return tuple(results)


_PLAIN_DECIMAL = re.compile(r"([0-9]+)(?:\.([0-9]*))?")
# A decimal with an exponent as ``Fraction`` reads it: \d is any Unicode
# digit, and ``int`` reads the exponent's digits and underscores.
_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d*|\d+(?:_\d+)*))?"
    r"e([-+]?\d+(?:_\d+)*)\s*",
    re.IGNORECASE,
)


def _exponent(text: str) -> int | None:
    """The exponent of a decimal literal, read before any Fraction is made;
    None without one, or past ``int``'s digit limit, which ``Fraction``
    refuses as it is."""
    match = _EXPONENT.fullmatch(text)
    if match is None:
        return None
    try:
        return int(match[1])
    except ValueError:
        return None


def _square_norm(text: str) -> tuple[Fraction, str | None]:
    """A ``norms`` literal's square, rounded to a denominator of at most
    ``NORM_DENOMINATOR_LIMIT``, and its rounding warning (None if exact).

    A plain ASCII decimal w.f is squared on ints: n = w * 10^len(f) + f
    over 10^len(f), reduced with one gcd, and squared.  ``int`` reads w
    and f apart, as ``Fraction`` does, so the limit on digits acts the
    same.  Any other literal (a sign, an exponent, whitespace,
    underscores, other digits, a slash), and any square that must be
    rounded, takes the ``Fraction`` path.  An exponent past
    ``NORM_EXPONENT_LIMIT`` is refused first.  ``Fraction`` would spend
    time growing faster than the exponent, and the square, with a mantissa
    of at most 4,300 digits, would round to 0 or match no trace.
    """
    match = _PLAIN_DECIMAL.fullmatch(text)
    if match:
        whole, frac = match.groups("")
        scale = 10 ** len(frac)
        num = int(whole) * scale + int(frac or 0)
        g = math.gcd(num, scale)
        den = scale // g
        if den * den <= NORM_DENOMINATOR_LIMIT:
            num //= g
            return Fraction(num * num, den * den), None
    exponent = _exponent(text)
    if exponent is not None and abs(exponent) > NORM_EXPONENT_LIMIT:
        raise ValueError(f"norm {text!r}: exponent past ±{NORM_EXPONENT_LIMIT}")
    exact = Fraction(text) ** 2
    rounded = exact.limit_denominator(NORM_DENOMINATOR_LIMIT)
    if rounded == exact:
        return rounded, None
    exact_text, rounded_text = describe_rational(exact), describe_rational(rounded)
    return rounded, f"norm {text}: squared value {exact_text} rounded to {rounded_text}"


@_parsed_json("spec file")
def parse_spec_payload(payload: dict) -> tuple[FrameSpec, list[str]]:
    """Build a FrameSpec from a parsed spec file; returns (spec, warnings).

    The values are parsed by :func:`_parse_each`, and the public
    constructor checks them and takes them apart.
    """
    warnings: list[str] = []
    if "dim" not in payload or "eigenvalues" not in payload:
        raise ValueError("spec file needs 'dim' and 'eigenvalues'")
    eigenvalues = _parse_each(payload, "eigenvalues")
    if _int_field(payload["dim"], "spec file") != len(eigenvalues):
        raise ValueError(
            f"dim is {payload['dim']} but {len(eigenvalues)} eigenvalues were given"
        )
    unit = payload.get("unit")
    if unit is not None and type(unit) is not bool:
        raise TypeError(f"'unit' must be true, false or null, not {type(unit).__name__}")
    provided = [key for key in ("norms_squared", "norms", "unit") if payload.get(key)]
    if len(provided) != 1:
        raise ValueError("provide exactly one of norms_squared, norms, unit")
    if provided[0] == "norms_squared":
        norms_sq = _parse_each(payload, "norms_squared")
    elif provided[0] == "norms":
        squares = _parse_each(payload, "norms", _square_norm)
        norms_sq = tuple(value for value, _ in squares)
        warnings.append(
            "decimal norms are a lossy input path; pass norms_squared for exact results"
        )
        # one warning per rounded occurrence, in list order
        warnings.extend(note for _, note in squares if note is not None)
    else:
        total = exact_sum(eigenvalues)
        if total.denominator != 1 or total <= 0:
            raise ValueError(
                "unit norms need the eigenvalues to sum to a positive integer, "
                f"got {describe_rational(total)}"
            )
        if total > MAX_EQUAL_NORM_VECTORS:  # an equal-norm spec: the same limit
            limit, count = MAX_EQUAL_NORM_VECTORS, describe_rational(total)
            raise ValueError(f"{count} unit norms exceed the limit of {limit}")
        norms_sq = (Fraction(1),) * total.numerator
    return FrameSpec(eigenvalues, norms_sq), warnings


def load_json_file(path: str, what: str) -> Any:
    """The parsed JSON of ``path``.  A file that is not UTF-8, not JSON, or
    JSON nested too deeply for the parser's recursion raises ValueError
    naming ``what``, the file kind."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed {what}: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"malformed {what}: JSON nested too deeply") from exc


def load_spec_file(path: str) -> tuple[FrameSpec, list[str]]:
    return parse_spec_payload(load_json_file(path, "spec file"))


# The matrix file as ``canonical_json`` renders it.  Entries and block-log
# records always have the same keys, and a record's spans are pairs, so
# one format string renders each; the tests check the result against
# ``canonical_json`` byte for byte.
_ENTRY = (
    '{\n      "col": %d,\n      "rad": {\n        "den": %d,\n        "num": %d\n'
    '      },\n      "row": %d,\n      "sign": %d\n    }'
)
_BLOCK_RECORD = (
    '{\n        "colSpan": [\n          %d,\n          %d\n        ],\n        "kind": "%s",\n'
    '        "rowSpan": [\n          %d,\n          %d\n        ]\n      }'
)
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


def _literals(pairs) -> str:
    """A spec's values as a JSON list of rational literals, from its int
    pairs; each distinct pair is rendered once, in first-seen order."""
    # rational literals hold only digits, "-" and "/": nothing to escape
    text = {pair: f'"{format_ratio(*pair)}"' for pair in dict.fromkeys(pairs)}
    return _nested("[]", list(map(text.__getitem__, pairs)), "    ")


def dump_matrix_file(
    matrix: SynthesisMatrix,
    spec: FrameSpec | None = None,
    reproducible: bool = False,
) -> str:
    """The matrix file text: sorted keys, indent 2, as ``canonical_json``."""
    entries = [
        _ENTRY % (col, value.den, value.num, row, value.sign) for row, col, value in matrix.entries
    ]
    log = [_BLOCK_RECORD % (*r.cols, r.kind.value, *r.rows) for r in matrix.block_log]
    # in sorted key order: blockLog, eigenvalues, generator, norms_squared
    metadata = ['"blockLog": ' + _nested("[]", log, "    ")]
    if spec is not None:
        metadata.append('"eigenvalues": ' + _literals(spec._eigen_pairs))
    if not reproducible:
        metadata.append(_GENERATOR)
    if spec is not None:
        metadata.append('"norms_squared": ' + _literals(spec._norm_pairs))
    top = [
        f'"count": {matrix.count:d}',
        f'"dim": {matrix.dim:d}',
        '"entries": ' + _nested("[]", entries, "  "),
        '"metadata": ' + _nested("{}", metadata, "  "),
    ]
    return _nested("{}", top, "") + "\n"


_KINDS = {kind.value: kind for kind in BlockKind}


def _int_field(value, what: str = "matrix file") -> int:
    """``int(value)`` for an int field of a ``what`` file, refusing a float
    that is not integral and a JSON boolean: int() would truncate 1.5 to 1
    and 0.9 to row 0, and read true as 1 and false as row 0."""
    if type(value) is bool or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"malformed {what}: {value!r} is not an integer")
    return int(value)


def _int_tuple(values) -> tuple[int, ...]:
    """The items as a tuple of ints; each item goes through
    :func:`_int_field` unless all of them are ints already."""
    ints = tuple(values)
    for value in ints:
        if type(value) is not int:
            return tuple(map(_int_field, ints))
    return ints


@_parsed_json("matrix file")
def matrix_from_payload(payload: dict) -> SynthesisMatrix:
    """Build a matrix from a parsed matrix file.

    Raises ValueError unless the payload is an object with ``dim``,
    ``count`` and ``entries``; the public :class:`SynthesisMatrix`
    constructor checks the cells.  Block-log records are built through
    ``construct._block_record`` once their spans are pairs of ints and
    their kind is a :class:`BlockKind`; any other span length raises the
    ValueError the public ``construct.BlockRecord`` raises, naming the file.
    Entries with equal raw ``(sign, num, den)`` share one value, built
    once from the ints (:func:`~spectral_tetris.scalar.radical_of_ints`):
    values are immutable, and equal raw fields convert equally.  A
    boolean equals 1 or 0 but is refused, so an entry with one never takes
    a shared value.  An int field that is not already an int goes through
    :func:`_int_field`.
    """
    if not isinstance(payload, dict) or not {"dim", "count", "entries"} <= payload.keys():
        raise ValueError("a matrix file is an object with 'dim', 'count' and 'entries'")
    values: dict = {}
    entries = []
    for item in payload["entries"]:
        row, col = item["row"], item["col"]
        if type(row) is not int or type(col) is not int:
            row, col = _int_field(row), _int_field(col)
        rad = item["rad"]
        key = sign, num, den = item["sign"], rad["num"], rad["den"]
        value = values.get(key)
        if value is None or type(sign) is bool or type(num) is bool or type(den) is bool:
            value = values[key] = radical_of_ints(*_int_tuple(key))
        entries.append((row, col, value))
    log = []
    for record in payload.get("metadata", {}).get("blockLog", []):
        text = record["kind"]
        kind = _KINDS.get(text) if type(text) is str else None
        if kind is None:  # BlockKind raises its own error on anything else
            kind = BlockKind(text)
        rows, cols = _int_tuple(record["rowSpan"]), _int_tuple(record["colSpan"])
        if len(rows) != 2 or len(cols) != 2:
            detail = f"block spans must be index pairs, got rows {rows}, cols {cols}"
            raise ValueError(f"malformed matrix file: {detail}")
        log.append(_block_record(kind, rows, cols))
    return SynthesisMatrix(
        dim=_int_field(payload["dim"]),
        count=_int_field(payload["count"]),
        entries=entries,
        block_log=log,
    )


@_parsed_json("matrix file metadata")
def spec_from_matrix_metadata(payload: dict) -> FrameSpec | None:
    metadata = payload.get("metadata", {})
    if "eigenvalues" in metadata and "norms_squared" in metadata:
        eigenvalues = _parse_each(metadata, "eigenvalues")
        return FrameSpec(eigenvalues, _parse_each(metadata, "norms_squared"))
    return None


def _float_csv_lines(matrix: SynthesisMatrix):
    """The lines of :func:`dump_float_csv`, each with its newline, made one
    at a time as they are read.  Every nonzero is converted before this
    returns, so a value beyond the double range raises here, before any
    line is made."""
    cells: list[list] = [[] for _ in range(matrix.dim)]  # row -> (col, text)
    for r, c, value in matrix.entries:
        cells[r].append((c, f"{float(value):.17g}"))
    count = matrix.count

    def lines():
        for row in cells:
            line = ["0"] * count
            for c, text in row:
                line[c] = text
            yield ",".join(line) + "\n"

    return lines()


def dump_float_csv(matrix: SynthesisMatrix) -> str:
    """Row-major ``.17g`` dump: rows start as ``"0"`` cells; only nonzeros are formatted."""
    return "".join(_float_csv_lines(matrix))


def load_float_csv(path: str) -> SynthesisMatrix:
    """Read a plain CSV of finite decimals; every value is representable
    exactly as sign * sqrt(value^2) so squared sums stay exact.  A bad
    decimal is reported first, then an empty, ragged or non-finite matrix."""
    nonzeros = []  # (row, col, value), row-major
    widths = []  # cells per line
    with open(path, encoding="utf-8") as handle:
        for r, line in enumerate(filter(None, map(str.strip, handle))):
            values = list(map(float, line.split(",")))
            widths.append(len(values))
            nonzeros += ((r, c, x) for c, x in compress(enumerate(values), values))  # keeps nan
    if not widths:
        raise ValueError("empty CSV matrix")
    if len(set(widths)) > 1:
        raise ValueError("ragged CSV matrix")
    if not all(math.isfinite(value) for _, _, value in nonzeros):
        raise ValueError("CSV matrix values must be finite")
    entries = [(r, c, RadicalScalar.of_rational(Fraction(value))) for r, c, value in nonzeros]
    return SynthesisMatrix(dim=len(widths), count=widths[0], entries=entries, block_log=())
