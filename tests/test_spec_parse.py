"""Spec literals are parsed on ints: ``parse_rational`` builds its value
from the two matched ints, and a plain decimal norm is squared on ints.
Both must give what the Fraction parses they replace give: the same
value, or the same exception type and message, and, on the ``norms``
path, the same warnings in the same order."""

import json
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectral_tetris import FrameSpec, format_rational, formats
from spectral_tetris.cli import main
from spectral_tetris.scalar import parse_rational
from helpers import (
    count_fractions,
    parse_rational_via_fraction,
    square_norm_via_fraction,
)

LOSSY = "decimal norms are a lossy input path; pass norms_squared for exact results"

SMALL_DIGITS = st.text("0123456789", max_size=4) | st.text("0123456789٣۵", min_size=1, max_size=3)
# runs about the interpreter's 4,300-digit limit on int <-> text
LONG_DIGITS = st.integers(4290, 4310).map(lambda n: "7" * n)
DIGITS = SMALL_DIGITS | LONG_DIGITS | st.sampled_from(["1_000", "0", "007", "001953125"])
SPACE = st.sampled_from(["", " ", "\t", "\n", " "])
SIGN = st.sampled_from(["", "+", "-", "--"])


@st.composite
def literals(draw) -> str:
    """Literals in and near the grammars of ``parse_rational`` and of
    ``Fraction``: signs, whitespace, ``/``, ``.``, exponents with small
    digit runs only, underscores and non-ASCII digits."""
    text = draw(SPACE) + draw(SIGN) + draw(DIGITS)
    separator = draw(st.sampled_from(["", ".", "/", "_"]))
    if separator:
        text += separator + draw(DIGITS)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["e", "E"])) + draw(SIGN) + draw(SMALL_DIGITS)
    return text + draw(SPACE)


# plain ASCII decimals, the int path: short ones, ones whose square must
# be rounded, and parts that are each within the digit limit but not
# together
ASCII_DIGITS = st.text("0123456789", min_size=1, max_size=10) | LONG_DIGITS
PLAIN_DECIMALS = st.tuples(ASCII_DIGITS, st.sampled_from([".", ""]), ASCII_DIGITS | st.just("")).map(
    "".join
)
LITERALS = PLAIN_DECIMALS | literals() | st.text("0123456789.+-/eE_ ٣x", max_size=6)
# lists with repeated literals, as spec files have them
NORM_LISTS = st.lists(LITERALS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)
CHECKED = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except Exception as exc:  # the reference must raise alike
        return type(exc), str(exc)


@CHECKED
@given(text=LITERALS)
@example(text="7" * 4301 + "/" + "3" * 4302)  # both parts past the limit: the first is named
@example(text="-" + "7" * 4300 + "/" + "3" * 4301)
@example(text=" +٣/۵ ")
def test_parse_rational_matches_the_fraction_reference(text):
    got = _outcome(parse_rational, text)
    assert got == _outcome(parse_rational_via_fraction, text)
    if got[0] == "value":
        assert type(got[1]) is Fraction


@formats._parsed_json("spec file")
def _norms_via_fraction(payload: dict):
    """The ``norms`` path of ``parse_spec_payload`` on a one-row spec, one
    reference square per occurrence."""
    squares = [square_norm_via_fraction(str(text)) for text in payload["norms"]]
    spec = FrameSpec(eigenvalues=(Fraction(1),), norms_sq=tuple(value for value, _ in squares))
    return spec, [LOSSY] + [note for _, note in squares if note is not None]


@CHECKED
@given(texts=NORM_LISTS)
def test_norms_path_matches_the_fraction_reference(texts):
    payload = {"dim": 1, "eigenvalues": ["1"], "norms": texts}
    got = _outcome(formats.parse_spec_payload, payload)
    assert got == _outcome(_norms_via_fraction, payload)
    if got[0] == "value":
        assert {type(value) for value in got[1][0].norms_sq} == {Fraction}


def test_a_plain_decimal_spec_makes_one_fraction_per_distinct_literal():
    eigenvalues = ["3/2", "7", "3/2", "22/7"] * 5
    norms = ["1.5", "0.25", "2", "1.125", "0.5", "1.5", "0.25", "0.001953125"] * 25
    payload = {"dim": len(eigenvalues), "eigenvalues": eigenvalues, "norms": norms}
    with count_fractions() as parsing:
        spec, warnings = formats.parse_spec_payload(payload)
    assert warnings == [LOSSY]
    assert spec.norms_sq[-1] == Fraction(1, 512**2)
    distinct = len(set(eigenvalues)) + len(set(norms))
    assert parsing.made <= distinct, parsing.made


def test_a_long_decimal_norm_warns_and_rounds(tmp_path, capsys):
    # the exact square has about 5,000 digits on each side of its bar,
    # past the limit on int -> text, so the warning gives digit counts
    text = "1." + "3" * 2500
    rounded, note = square_norm_via_fraction(text)
    assert format_rational(rounded) == "16/9"
    assert note.startswith(f"norm {text}: squared value <about ")
    assert note.endswith(" digits> rounded to 16/9")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 1, "eigenvalues": ["16/9"], "norms": [text]}), encoding="utf-8")
    for argv in (["check", str(spec)], ["construct", str(spec), str(tmp_path / "out.json")], ["search", str(spec)]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == f"warning: {LOSSY}\nwarning: {note}\n"
