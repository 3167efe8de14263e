"""The canonical code does not depend on the order of the loops.

Each multi-loop curve of the conftest families and of the golden inputs
is written beside a copy with its loops in reverse order, each loop
starting a third of its samples later. Through the CLI, both files must
print the same `canonical:` line and the same `symmetry` group order (or
the same refusal), and `compare` of the two must print EQUIVALENT.

The discrepancy is not exactly 0: a face's area is summed from the
loop's basepoint on, and the correspondence may pair congruent loops
at different places, so the last bits move. It is held to 1e-12 of the
largest face area. `compare --labelled` follows the one correspondence
of the first minimal readings, which pairs the loops by input order when
G is not trivial, so its verdict is only required where G is trivial.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest
from conftest import circle_curve, circles_row, eights_row, gerono_curve, holed_curve
from test_golden import INPUTS

from symplane.cli import main
from symplane.curves import ClosedCurve, load_curve, serialize_curve

GOLDEN = ["holed", "holed-reversed", "row3", "row3-moved", "row3-shrunk", "row5", "row5-reordered",
          "circles12", "rings12"]


def families():
    """Name -> curve: the generic multi-loop curves of conftest and the corpus."""
    out = {"holed": holed_curve(),
           # a circle beside a figure-eight: loops of two shapes
           "circle-eight": ClosedCurve((circle_curve(n=128, radius=0.8, center=(5.0, 0.0)).loops[0],
                                        gerono_curve(n=128).loops[0]))}
    out.update({f"eights{k}": eights_row(k) for k in (2, 3, 4)})
    out.update({f"circles{k}": circles_row(k) for k in (2, 3, 5)})
    out.update({f"golden-{name}": load_curve(INPUTS / f"{name}.curve") for name in GOLDEN})
    return out


def reversed_copy(curve):
    """The loops in reverse order, each starting a third of its samples later."""
    return ClosedCurve(tuple(np.roll(loop, len(loop) // 3 + 1, axis=0)
                             for loop in curve.loops[::-1]))


def cli(*argv):
    out = io.StringIO()
    try:
        code = main(list(argv), out=out)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


def line(text, key):
    return next(row for row in text.splitlines() if row.startswith(key))


@pytest.mark.parametrize("name", sorted(families()))
def test_reversed_loops_read_alike(name, tmp_path, capsys):
    curve = families()[name]
    a, b = tmp_path / "a.curve", tmp_path / "b.curve"
    a.write_text(serialize_curve(curve))
    b.write_text(serialize_curve(reversed_copy(curve)))
    (code_a, text_a), (code_b, text_b) = cli("analyze", str(a)), cli("analyze", str(b))
    assert code_a == code_b == 0
    assert line(text_a, "canonical:") == line(text_b, "canonical:")
    largest = max(float(v) for v in re.findall(r"^  \d+: (\S+)$", text_a, re.M))

    sym_a, sym_b = cli("symmetry", str(a)), cli("symmetry", str(b))
    errors = capsys.readouterr().err.splitlines()
    if sym_a[0] == 0:
        assert sym_b[0] == 0
        assert line(sym_a[1], "group order:") == line(sym_b[1], "group order:")
        trivial = line(sym_a[1], "group order:") == "group order: 1"
    else:  # refused from |G|, both with the same error line
        assert sym_a[0] == sym_b[0] == 2
        assert len(errors) == 2 and errors[0] == errors[1]
        return
    for mode in ("--symplectic", "--labelled"):
        code, text = cli("compare", str(a), str(b), mode)
        if mode == "--labelled" and not trivial:
            continue
        assert (code, text.splitlines()[3]) == (0, "EQUIVALENT"), text
        assert float(line(text, "max area discrepancy:").split()[-1]) <= 1e-12 * largest
