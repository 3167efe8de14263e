"""The package's public names: each resolves once, removed ones stay gone,
and every definition in src/ is used."""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import symplane
from symplane import forms
from symplane.arrangement import Face

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
