"""The construct -> dump -> load -> verify path carries each entry as the
three ints of ``RadicalScalar``, so it makes no Fraction per entry or per
row or column sum.  Counted, not timed: a Fraction made per entry again
would add about three per column."""

import json
from fractions import Fraction

import pytest

from spectral_tetris import BlockKind, FrameSpec, formats, pnstc, verify_matrix
from helpers import count_fractions


@pytest.mark.parametrize("dim", [100, 300])
def test_unit_tight_pipeline_makes_about_one_fraction_per_block(dim):
    count = 2 * dim - 1
    spec = FrameSpec(eigenvalues=(Fraction(count, dim),) * dim, norms_sq=(Fraction(1),) * count)
    with count_fractions() as building:
        matrix = pnstc(spec)
        text = formats.dump_matrix_file(matrix, spec)
    payload = json.loads(text)  # the JSON parser makes no Fraction
    with count_fractions() as verifying:
        report = verify_matrix(formats.matrix_from_payload(payload), spec)
    made = building.made + verifying.made
    assert report.matches_spec
    blocks = sum(record.kind is not BlockKind.SINGLETON for record in matrix.block_log)
    assert blocks == dim - 1
    # the cursor's one first-row mass per block, and a few for the totals
    assert made <= blocks + 8, made


def test_unit_tight_two_l_minus_one_over_l_makes_a_constant_number_of_fractions():
    # 300 x 525 at redundancy 7/4: 225 blocks, at most L - 1 = 3 distinct,
    # and one Fraction each for the distinct blocks and verify's sums
    dim, count = 300, 525
    spec = FrameSpec(eigenvalues=(Fraction(count, dim),) * dim, norms_sq=(Fraction(1),) * count)
    with count_fractions() as building:
        matrix = pnstc(spec)
        text = formats.dump_matrix_file(matrix, spec)
    payload = json.loads(text)
    with count_fractions() as verifying:
        report = verify_matrix(formats.matrix_from_payload(payload), spec)
    made = building.made + verifying.made
    assert report.matches_spec
    blocks = {
        tuple(matrix.entry(row, col) for row in record.rows for col in record.cols)
        for record in matrix.block_log
        if record.kind is not BlockKind.SINGLETON
    }
    assert len(blocks) == 3
    assert made <= len(blocks) + 8, made
