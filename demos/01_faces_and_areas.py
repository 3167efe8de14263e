"""
Faces and areas of an immersed curve
====================================

Sample a trefoil-like loop, certify it is generic, build the face
arrangement, and read off the labelled area vector. The area vector is
the complete invariant everything else in the package is built on.
"""

import numpy as np

from symplane import build_arrangement, check_generic, face_areas
from symplane.curves import ClosedCurve

t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
loop = np.column_stack([np.sin(t) + 2.0 * np.sin(2.0 * t),
                        np.cos(t) - 2.0 * np.cos(2.0 * t)])
curve = ClosedCurve((loop,))

report = check_generic(curve)
print("generic:", report.is_generic)
print("double points:", len(report.double_points))

arr = build_arrangement(curve, report)
print("vertices:", len(arr.vertices))
print("edges:", len(arr.half_edges) // 2)
print("faces:", len(arr.faces))
print("bounded faces:", arr.r)

# Labels are canonical for the arrangement: face j is found again after
# resampling or rigid motion, so area vectors of different samplings of
# the same curve line up componentwise.
areas = face_areas(arr)
for label, area in enumerate(areas, start=1):
    print(f"face {label}: area {area:.6f}")

# Euler check for a single loop: V - E + F = 2 counting the outer face.
print("Euler:", len(arr.vertices) - len(arr.half_edges) // 2 + len(arr.faces))
