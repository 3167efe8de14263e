"""The package's public names: each resolves once, removed ones stay gone,
and every definition in src/ is used."""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import gerono_curve

import symplane
from symplane import forms
from symplane.arrangement import Face, build_arrangement
from symplane.curves import DoublePoint, GenericityReport, Violation
from symplane.diagram import gauss_code, isotopy_match, symmetry_group
from symplane.forms import unit_density
from symplane.moduli import labelled_equivalent

# the analytic plane maps; GridMap is the one map type
REMOVED_MAPS = ("PlanarMap", "AffineMap", "ShearMap", "ComposedMap",
                "identity_map", "rotation_map", "sample_map")


def test_every_public_name_resolves_once():
    assert len(symplane.__all__) == len(set(symplane.__all__))
    assert [name for name in symplane.__all__ if not hasattr(symplane, name)] == []


@pytest.mark.parametrize("module", [symplane, forms], ids=["symplane", "symplane.forms"])
def test_analytic_maps_are_not_importable(module):
    assert [name for name in REMOVED_MAPS if hasattr(module, name)] == []


def test_face_keeps_its_boundary_once():
    # a face's walks are read off Face.edges; no second copy is stored
    assert "polygons" not in {field.name for field in dataclasses.fields(Face)}


def _double_point():
    return DoublePoint(np.zeros(2), (0, 1.0), (0, 5.0), 1.0, 1)


# each builds a record that holds numpy arrays, the same content each call
ARRAY_RECORDS = {
    "ClosedCurve": lambda: gerono_curve(n=64),
    "DoublePoint": _double_point,
    "Violation": lambda: Violation("cusp-proxy", np.zeros(2), ((0, 1.0),), "turn"),
    "GenericityReport": lambda: GenericityReport((_double_point(),), (), 0.1, 1e-6),
    "HalfEdge": lambda: build_arrangement(gerono_curve(n=64)).half_edges[0],
    "Face": lambda: build_arrangement(gerono_curve(n=64)).faces[0],
    "Arrangement": lambda: build_arrangement(gerono_curve(n=64)),
    "SymmetryGroup": lambda: symmetry_group(build_arrangement(gerono_curve(n=64))),
    "Density": lambda: unit_density(0, 1, 0, 1, 4, 4),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(build):
    # equality over array fields would raise or mean nothing: two records
    # of equal content differ, each equals itself, and each hashes
    a, b = build(), build()
    assert a != b and not a == b
    assert a == a and hash(a) == hash(a)
    assert len({a, b}) == 2


def test_tuple_records_compare_by_value():
    arr = build_arrangement(gerono_curve(n=64))
    again = build_arrangement(gerono_curve(n=64))
    assert gauss_code(arr) == gauss_code(again)
    assert isotopy_match(arr, again) == isotopy_match(arr, again)
    assert labelled_equivalent(arr, again) == labelled_equivalent(arr, again)


def unused_definitions(src: Path, exported, pyproject: str):
    """The module-level functions and classes of the modules in src, and
    the methods of their classes that are not exported, that no module
    there names (as a name, an attribute or an import) beyond their own
    definition, that `exported` lacks and that no console script of the
    pyproject text runs; dunder methods run implicitly and are skipped."""
    scripts = set(re.findall(r'^[\w-]+\s*=\s*"[\w.]+:(\w+)"', pyproject, re.M))
    used, defined = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef) and node.name not in exported:
                defined += [(f"{path.stem}.{node.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    return [f"{owner}.{name}" for owner, name in defined
            if name not in used and name not in exported and name not in scripts]


def test_every_definition_in_src_is_used():
    # code that nothing calls gets deleted: a function or class, or a
    # method of a class the package does not export, is called or named
    # in src/, exported in symplane.__all__, or the console script's entry
    # point. pyproject.toml is read as text: Python 3.10 has no tomllib
    src = Path(symplane.__file__).resolve().parent
    pyproject = (src.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert unused_definitions(src, set(symplane.__all__), pyproject) == []
