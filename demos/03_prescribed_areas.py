"""
Realizing prescribed face areas
===============================

Any target vector above the base face integrals is realized by adding
interior bump masses, one per bounded face. The resulting density is a
certificate: integrating it over the faces reproduces the targets.
`realize_area_vector` returns those integrals with the density, as it
checked them against the targets.
"""

import numpy as np

from symplane import (
    build_arrangement,
    density_for_curve,
    integrate_density_over_faces,
    realize_area_vector,
)
from symplane.curves import ClosedCurve

t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
loop = np.column_stack([np.sin(t) + 2.0 * np.sin(2.0 * t),
                        np.cos(t) - 2.0 * np.cos(2.0 * t)])
arr = build_arrangement(ClosedCurve((loop,)))

# Base integrals come from the unit density: the Euclidean face areas.
unit = density_for_curve(arr.curve, n=256)
base = integrate_density_over_faces(arr, unit)
print("base integrals:", np.round(base, 4))

# Ask for something strictly larger in every slot.
target = base + np.array([0.5, 0.25, 0.75, 1.0])
density, achieved = realize_area_vector(arr, target, grid_n=256)
print("targets:     ", np.round(target, 4))
print("achieved:    ", np.round(achieved, 4))
print("max error:   ", float(np.max(np.abs(achieved - target))))

# Targets below the base are out of reach for pure mass addition; a
# base_scale < 1 first carves mass out of each face to make room. The
# carve capacity is bounded by the interior disc each face can hold.
smaller = base - 0.1
density, achieved = realize_area_vector(arr, smaller, base_scale=0.2, grid_n=256)
print("shrunk targets:", np.round(smaller, 4))
print("achieved:      ", np.round(achieved, 4))
