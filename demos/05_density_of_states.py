#!/usr/bin/env python3
"""Integrated density of states and its local scaling exponents.

N(E) is the normalized Dirichlet eigenvalue count of a long finite
chain.  It is a devil's-staircase-like function: constant on every gap,
with local scaling exponents strictly below the local box dimension of
the spectrum wherever the operator is genuinely aperiodic.
"""

import numpy as np

from sturmtrace import (
    FIBONACCI,
    JacobiParams,
    dos_dimension_summary,
    ids,
    ids_counter,
    ids_scaling_exponent,
)
from sturmtrace.dos import dyadic_ladder
from sturmtrace.spectrum import default_energy_range

params = JacobiParams(1.0, 1.0)
L = 1597
lo, hi = default_energy_range(params)

print("== IDS table for the Fibonacci chain (hopping 1, potential 1)")
table = ids(FIBONACCI, params, L, np.linspace(lo, hi, 25))
for E, N in zip(table.e_grid, table.n_values):
    bar = "#" * int(round(50 * N))
    print("E=%+6.2f N=%.4f %s" % (E, N, bar))

print("\n== scaling exponents at a few energies")
counter = ids_counter(FIBONACCI, params, L)
fine = ids(FIBONACCI, params, L, np.linspace(lo, hi, 4097))
for u in (0.2, 0.5, 0.8):
    E = fine.quantile(u)
    d, err = ids_scaling_exponent(counter, E, dyadic_ladder((hi - lo) / 128, 6))
    print("E = %+7.4f (IDS quantile %.1f): d = %.3f +- %.3f" % (E, u, d, err))

print("\n== summaries approach 1 as the coupling fades")
for q in (1.0, 0.4, 0.1):
    summ = dos_dimension_summary(FIBONACCI, JacobiParams(1.0, q), 15, L, seed=0)
    print("q=%.1f: d in [%.3f, %.3f], median %.3f (%d below resolution)"
          % (q, summ.d_min, summ.d_max, summ.d_median, summ.skipped))
