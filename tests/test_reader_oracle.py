"""The bulk curve reader against the row-by-row reader it replaced.

`curves.parse_curve` splits each loop's rows once and converts all their
tokens in one `float` pass; only when that fails does it read the rows
again one by one to name the bad line. The loops it returns must equal
`oracles.parse_curve`'s bit for bit, and every error must be the same
exception with the same text: on the golden inputs, and on files with a
bad token, a short or long row, tokens that Python's `float` accepts
although they look odd, non-finite values, CRLF line endings, and
comments or blank lines inside a loop. The comment and blank-line
filter `_significant_lines`, which every input format shares, must
equal its per-line original.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import eights_row, trefoil_curve

from symplane.curves import _significant_lines, parse_curve, serialize_curve
from symplane.errors import FormatError, ValidationError

GOLDEN = Path(__file__).resolve().parent / "golden" / "inputs"


def outcome(parse, text):
    """Loops as (shape, bytes) pairs, or the exception's type and text."""
    try:
        curve = parse(text)
    except (FormatError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return [(pts.shape, pts.tobytes()) for pts in curve.loops]


def assert_same(text):
    new = outcome(parse_curve, text)
    assert new == outcome(oracles.parse_curve, text)
    return new


def with_row(text, row, value):
    """The text with its row-th line (0-based) replaced by `value`."""
    lines = text.split("\n")
    lines[row] = value
    return "\n".join(lines)


ONE = serialize_curve(trefoil_curve(n=64))  # line 0 header, 1 'loop 64', rows 2..65
TWO = serialize_curve(eights_row(2, n=32))  # rows 2..33, 'loop 32' at 34, rows 35..66


def utf8_text(path):
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:  # rejected before parsing
        return None


GOLDEN_TEXTS = {p.name: utf8_text(p) for p in sorted(GOLDEN.glob("*.curve")) if utf8_text(p)}


@pytest.mark.parametrize("name", list(GOLDEN_TEXTS))
def test_golden_inputs_read_alike(name):
    assert_same(GOLDEN_TEXTS[name])


def test_valid_files_read_alike():
    for text in (ONE, TWO):
        loops = assert_same(text)
        assert isinstance(loops, list)


@pytest.mark.parametrize("text, row", [(ONE, 2), (ONE, 33), (ONE, 65), (TWO, 35), (TWO, 50),
                                       (TWO, 66)], ids=["first", "middle", "last", "loop2-first",
                                                        "loop2-middle", "loop2-last"])
@pytest.mark.parametrize("bad", ["0.5 zero", "x 1", "1,5 2", "0.1 0.2.3", "- 1"])
def test_bad_token_names_its_line(text, row, bad):
    kind, message = assert_same(with_row(text, row, bad))
    assert kind == "FormatError"
    assert message.startswith(f"line {row + 1}: bad coordinate")


@pytest.mark.parametrize("short", ["0.5", "0.5 0.5 0.5"], ids=["one-column", "three-columns"])
@pytest.mark.parametrize("before", [True, False], ids=["before-bad", "after-bad"])
def test_column_count_and_bad_token_first_wins(short, before):
    shape_row, bad_row = (10, 20) if before else (20, 10)
    text = with_row(with_row(ONE, shape_row, short), bad_row, "1 nope")
    kind, message = assert_same(text)
    assert kind == "FormatError"
    first = min(shape_row, bad_row)
    assert message.startswith(f"line {first + 1}: ")
    assert ("expected 'x y'" in message) == before


def test_one_and_three_columns_that_balance_are_rejected():
    # two tokens per row on average, but not on every row
    text = with_row(with_row(ONE, 10, "0.5"), 11, "0.5 0.5 0.5")
    assert assert_same(text) == ("FormatError", "line 11: expected 'x y', got '0.5'")


@pytest.mark.parametrize("token, value", [("1_0", 10.0), ("١٢", 12.0), ("+3", 3.0),
                                          ("-0", -0.0), ("1E-3", 1e-3)])
def test_tokens_python_float_accepts(token, value):
    loops = assert_same(with_row(ONE, 7, f"{token} 0.25"))
    pts = np.frombuffer(loops[0][1]).reshape(loops[0][0])
    assert pts[5, 0].tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1e999", "NaN"])
def test_non_finite_rows_name_the_loop(value):
    for text, row, header in ((ONE, 30, 2), (TWO, 40, 35)):
        kind, message = assert_same(with_row(text, row, f"0.5 {value}"))
        assert (kind, message) == ("FormatError", f"line {header}: non-finite coordinate in loop")


def test_crlf_line_endings():
    loops = assert_same(ONE.replace("\n", "\r\n"))
    assert loops == outcome(oracles.parse_curve, ONE)
    kind, message = assert_same(with_row(ONE, 9, "1 bad").replace("\n", "\r\n"))
    assert message == "line 10: bad coordinate in '1 bad'"


def test_comments_and_blank_lines_inside_a_loop():
    lines = TWO.split("\n")
    lines[20:20] = ["", "# a comment line", "   "]
    lines[40] += "  # trailing comment"
    text = "\n".join(lines)
    assert assert_same(text) == outcome(oracles.parse_curve, TWO)
    # line numbers count the skipped lines
    lines[50] = "2 two  # comment"
    kind, message = assert_same("\n".join(lines))
    assert message == "line 51: bad coordinate in '2 two'"


@pytest.mark.parametrize("text", ["curve v1\nloop 3\n0 0\n1 0\n2 1\n",
                                  "curve v1\nloop 8\n" + "0 0\n" * 7 + "1 1\n",
                                  "curve v1\nloop 8\n" + "1 2\n" * 7,
                                  "curve v1\nloop 8\n" + "1 2\n" * 8 + "loop x\n",
                                  "curve v1\n"])
def test_count_and_validation_errors_read_alike(text):
    kind, _ = assert_same(text)
    assert kind in ("FormatError", "ValidationError")


@pytest.mark.parametrize("text", [
    "", "\n\n", "a", "  a b  \n\tc\n", "# only a comment\n", "x # y # z\n#\n  #  \nw",
    "a\r\nb\rc\x0bd\x0ce\x1cf\x1dg\x1eh\x85i j k",
    "　a b \n \n", "a#b\nc#\n#d\n e #f\n", "trailing\n\n\n",
])
def test_significant_lines_like_per_line_loop(text):
    # the comment rule shared by every input format, on line breaks and
    # whitespace beyond "\n" and " "
    assert _significant_lines(text) == oracles._significant_lines(text)
    assert _significant_lines(ONE + text) == oracles._significant_lines(ONE + text)
