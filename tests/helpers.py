"""Shared test utilities: dense views, randomized spec generators and
reference implementations the fast paths are checked against."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from spectral_tetris import (
    BlockKind,
    BlockRecord,
    FrameSpec,
    RadicalScalar,
    SynthesisMatrix,
    format_rational,
)
from spectral_tetris.formats import GENERATOR_NAME, GENERATOR_VERSION, radical_from_json


def grid(matrix: SynthesisMatrix) -> list[list[tuple[int, Fraction]]]:
    """Dense (sign, radicand) view for exact entrywise comparisons."""
    return [
        [
            (matrix.entry(r, c).sign, matrix.entry(r, c).radicand)
            for c in range(matrix.count)
        ]
        for r in range(matrix.dim)
    ]


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


def matrix_from_payload_per_entry(payload: dict) -> SynthesisMatrix:
    """Reference for ``formats.matrix_from_payload``: one ``radical_from_json``
    per entry, no sharing, and the library's own exceptions unwrapped."""
    entries = [
        (int(item["row"]), int(item["col"]), radical_from_json(item))
        for item in payload["entries"]
    ]
    log = tuple(
        BlockRecord(
            kind=BlockKind(record["kind"]),
            rows=tuple(map(int, record["rowSpan"])),
            cols=tuple(map(int, record["colSpan"])),
        )
        for record in payload.get("metadata", {}).get("blockLog", [])
    )
    return SynthesisMatrix(
        dim=int(payload["dim"]), count=int(payload["count"]), entries=entries, block_log=log
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
