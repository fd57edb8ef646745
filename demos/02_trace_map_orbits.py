#!/usr/bin/env python3
"""Trace-map dynamics: invariant surfaces, escape times, orbit verdicts.

The periodic block of a substitution's trace map conserves
I(x,y,z) = x^2 + y^2 + z^2 - 2xyz - 1, so orbits live on the surfaces
S_V = {I = V}.  Bounded orbits of the curve of initial conditions mark
spectrum energies; everything else runs away to infinity in all three
coordinates.  This script classifies a few orbits and renders an
escape-time raster of a chart of S_V.
"""

import os

import numpy as np

from sturmtrace import (
    FIBONACCI,
    JacobiParams,
    classify,
    fricke_vogt,
    initial_conditions_grid,
    recipe_from_substitution,
    step,
    surface_section,
)

recipe = recipe_from_substitution(FIBONACCI)
print("recipe:", recipe.text())

print("\n== single orbits")
for p in ((1.0, 1.0, 1.0), (0.2, 0.3, 0.4), (10.0, 10.0, 10.0)):
    v = classify(recipe, p, max_steps=60)
    print("start %-18s I=%+.3f -> %s after %d blocks (max norm %.3g)"
          % (p, fricke_vogt(p), v.kind, v.steps_used, v.max_norm))

print("\n== the curve of initial conditions at a few energies")
params = JacobiParams(1.0, 2.0)
for E in (-1.0, 0.5, 4.0):
    l0 = initial_conditions_grid(params, E)
    v = classify(recipe, l0, max_steps=40)
    x3 = step(recipe, l0, 3)[0]
    print("E=%+4.1f  I(l)=%+.4f  half-trace at level 3 = %+10.4f  -> %s"
          % (E, fricke_vogt(l0), x3, v.kind))

print("\n== escape-time raster of a chart of S_V, V = 0.01")
raster = surface_section(0.01, 96)
steps = raster["steps"]
live = steps >= 0
bounded = (steps > raster["max_steps"]).sum()
print("pixels with real roots: %d, bounded: %d, escaping: %d"
      % (live.sum(), bounded, live.sum() - bounded))

os.makedirs("demo_output", exist_ok=True)
hist = np.bincount(steps[live & (steps <= raster["max_steps"])].ravel(),
                   minlength=raster["max_steps"] + 1)
print("escape-time histogram (first 12 block counts):", hist[:12].tolist())
np.savetxt("demo_output/surface_escape_steps.csv",
           steps.reshape(2 * 96, 96), fmt="%d", delimiter=",")
print("wrote demo_output/surface_escape_steps.csv")
