"""The package's public names: each resolves once, and removed ones stay gone."""

from __future__ import annotations

import dataclasses

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
