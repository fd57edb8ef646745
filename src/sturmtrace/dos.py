"""Integrated density of states and local scaling exponents.

N(E) is approximated by the normalized Dirichlet eigenvalue count of
the operator restricted to the first L sites of the fixed point,
N(E, L)/L.  The first L letters are a concatenation of blocks s^j(c),
at most max|s(c)| of them per level (Dumont-Thomas), so each count is
composed from the lifted Sturm pivot maps of the blocks s^j(0) and
s^j(1) (see jacobi.py): O(log L) array operations per energy for a
primitive substitution, instead of one Sturm step per site.  The IDS is
constant across spectral gaps, and on a gap its value is a label
frac(m alpha) from the gap labeling theorem.

The local scaling exponent at E is the log-log slope of the measure
N(E + eps) - N(E - eps) against eps over a dyadic ladder; exact
dimensionality says these exponents exist dN-almost everywhere, which
is sampled here by inverse-transform draws from the IDS itself.
"""

from dataclasses import dataclass

import numpy as np

from .jacobi import _block_count_below
from .spectrum import _value_eq, default_energy_range
from .substitution import _prefix_blocks


@dataclass(frozen=True, eq=False)
class IdsTable:
    """Monotone sampled IDS, its grids kept as read-only 1-d float64 copies."""

    e_grid: np.ndarray
    n_values: np.ndarray
    L: int
    __eq__ = _value_eq

    def __post_init__(self):
        e, n = np.array(self.e_grid, dtype=np.float64), np.array(self.n_values, dtype=np.float64)
        e.flags.writeable = n.flags.writeable = False
        object.__setattr__(self, "e_grid", e)
        object.__setattr__(self, "n_values", n)
        if e.ndim != 1 or e.shape != n.shape or e.size < 2:
            raise ValueError("need aligned 1-d grids with >= 2 points")
        # each check fails on a NaN as well
        if not (np.diff(e) > 0).all():
            raise ValueError("energy grid must be strictly increasing")
        if not (np.diff(n) >= 0).all():
            raise ValueError("IDS values must be nondecreasing")

    def __repr__(self):
        return "IdsTable(e_grid=%r, n_values=%r, L=%r)" % (
            tuple(self.e_grid.tolist()), tuple(self.n_values.tolist()), self.L)

    def value_at(self, E):
        """Step lookup: the value at the last grid point <= E, else the first.
        E is a number (a float is returned) or an array (an array of its shape)."""
        i = np.maximum(np.searchsorted(self.e_grid, E, side="right") - 1, 0)
        v = self.n_values[i]
        return v if np.ndim(i) else float(v)

    def quantile(self, u):
        """Inverse transform: smallest grid energy with N(E) >= u, else the last
        (the first for a NaN u, as bisect_left); u a number or an array, as E above."""
        i = np.minimum(np.searchsorted(self.n_values, u), len(self.n_values) - 1)
        v = self.e_grid[np.where(np.isnan(u), 0, i)]
        return v if np.ndim(i) else float(v)


# Largest |p| at which the lifted counts were checked against the Sturm loop.
# The two differ only at energies within a few times 1e-13 * max(1, |p|) of
# an eigenvalue, and that window grows with |p|: at p = 1e10 it already
# catches random energies of the O(1) window (8 of 24 000 miscounted).
_MAX_HOPPING = 1e9


def ids_counter(s, params, L):
    """Callable E -> N(E, L)/L for the length-L Dirichlet truncation.

    The counts are those of :func:`~sturmtrace.jacobi.eigen_count_below_grid`
    on ``dirichlet_restriction(params, fixed_point_prefix(s, L))``, up to
    energies within a few times 1e-13 * max(1, |p|) of an eigenvalue; the
    word is never built.  Raises ValueError for |p| > 1e9, and
    UnsupportedSubstitutionError when the fixed letter grows only
    linearly (see substitution._prefix_blocks).
    """
    if not abs(params.p) <= _MAX_HOPPING:
        raise ValueError("IDS counts are checked for |p| <= %g only" % _MAX_HOPPING)
    sp, blocks = _prefix_blocks(s, L)

    def counter(E):
        E_arr = np.atleast_1d(np.asarray(E, dtype=float))
        vals = _block_count_below(params, sp, blocks, L, E_arr) / float(L)
        return vals if np.ndim(E) else float(vals[0])

    counter.L = L
    return counter


def ids(s, params, L, e_grid):
    """IDS table over an energy grid spanning the spectrum hull: one batched count.

    Refuses as :func:`ids_counter` does, then L < 8 with ValueError.
    """
    counter = ids_counter(s, params, L)
    if L < 8:
        raise ValueError("need L >= 8")
    e = np.asarray(e_grid, dtype=float)
    return IdsTable(e, counter(e), L)


def _ladder_slope(eps, vals, floor):
    """Fit of log mass against log eps; vals are N(E + eps) then N(E - eps)."""
    if eps.size < 5:
        raise ValueError("need at least 5 ladder scales")
    mass = vals[: eps.size] - vals[eps.size :]
    if mass[0] <= floor:
        raise ValueError("insufficient resolution: window mass %.3g at eps=%.3g"
                         % (mass[0], eps[0]))
    return _loglog_fit(np.log(eps), np.log(mass))


def _loglog_fit(lx, ly):
    """Least-squares slope of ly against lx, and its standard error."""
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(lx.size - 2, 1)
    return float(slope), float(np.sqrt(np.sum(resid ** 2) / dof / np.sum((lx - lx.mean()) ** 2)))


def ids_scaling_exponent(ids_fn, E, eps_ladder):
    """Least-squares slope of log N(E-eps, E+eps) versus log eps.

    ids_fn is an IDS evaluator (see :func:`ids_counter`); the ladder
    needs >= 5 values and positive window mass at the smallest scale,
    which must exceed the 2/L resolution floor when L is known.
    """
    eps = np.sort(np.asarray(eps_ladder, dtype=float))
    vals = np.asarray(ids_fn(np.concatenate([E + eps, E - eps])), dtype=float)
    floor = 2.0 / ids_fn.L if hasattr(ids_fn, "L") else 0.0
    return _ladder_slope(eps, vals, floor)


def dyadic_ladder(eps_max, n_scales=8):
    return tuple(eps_max * 0.5 ** i for i in range(n_scales))


@dataclass(frozen=True)
class DosSummary:
    d_min: float
    d_median: float
    d_max: float
    exponents: tuple
    energies: tuple
    skipped: int


def _grid_quantiles(counter, grid, u):
    """Indices i of IdsTable.quantile(u) on the table of counter over grid,
    without counting the whole grid.

    Each draw u keeps a bracket [lo, hi] of grid indices, at first the
    whole grid, whose last index stands for "no point reaches u".  A
    round counts 15 evenly spaced probes inside every live bracket, all
    draws' probes deduplicated in one counter call: a probe with N >= u
    becomes the new hi, one with N < u moves lo past it.  When lo == hi
    that is the first grid index with N >= u, else the last, as the
    table's quantile finds it, because a count does not depend on the
    energies counted with it.  A 4097-point grid takes 3 rounds
    (4 when the answer is one of its last two points).  A count that is
    not monotone in E, which an IdsTable of the whole grid refuses, goes
    unseen here.
    """
    u = np.asarray(u, dtype=float)
    lo = np.zeros(u.shape, dtype=np.int64)
    hi = np.full(u.shape, grid.size - 1, dtype=np.int64)
    steps = np.arange(1, 16)
    while (live := lo < hi).any():
        l, h = lo[live][:, None], hi[live][:, None]
        probes = np.maximum(l - 1 + steps * (h - l + 1) // 16, l)
        idx, inv = np.unique(probes.ravel(), return_inverse=True)
        below = counter(grid[idx])[inv].reshape(probes.shape) < u[live][:, None]
        lo[live] = np.where(below, probes + 1, l).max(axis=1)
        hi[live] = np.where(below, h, probes).min(axis=1)
    return lo


def dos_dimension_summary(s, params, sample_count, L, seed=0, eps_max=None, n_scales=7):
    """Scaling exponents at dN-sampled energies, summarized.

    The energies are inverse-transform draws u from the IDS on the grid
    np.linspace(lo, hi, 4097) over the spectrum hull: the first grid
    energy with N >= u (so gap plateaus are never hit), found by
    multisection on the count (see _grid_quantiles) instead of by
    counting the whole grid.  Each sample's exponent is the fit over
    the dyadic ladder of n_scales windows from eps_max down, all
    ladders counted in one call; samples whose smallest window holds
    no more than the 2/L resolution are skipped and counted.  Refuses
    sample_count < 1, n_scales < 5, an eps_max that is not finite and
    > 0, and L < 8 with ValueError before any count, and raises
    RuntimeError when every sample is skipped.
    """
    if sample_count < 1:
        raise ValueError("need sample_count >= 1")
    if n_scales < 5:
        raise ValueError("need at least 5 ladder scales")
    if eps_max is not None and not (np.isfinite(eps_max) and eps_max > 0):
        raise ValueError("eps_max must be finite and > 0")
    if L < 8:
        raise ValueError("need L >= 8")
    lo, hi = default_energy_range(params)
    counter = ids_counter(s, params, L)
    if eps_max is None:
        eps_max = (hi - lo) / 64.0
    rng = np.random.default_rng(seed)
    draws = rng.uniform(1.0 / L, 1.0 - 1.0 / L, size=sample_count)
    eps = np.sort(np.asarray(dyadic_ladder(eps_max, n_scales), dtype=float))
    grid = np.linspace(lo, hi, 4097)
    centers = grid[_grid_quantiles(counter, grid, draws)]
    # every sample's ladder, N(E + eps) then N(E - eps), in one batched count
    ladders = np.concatenate([centers[:, None] + eps, centers[:, None] - eps], axis=1)
    rows = counter(ladders.ravel()).reshape(ladders.shape)
    exps, energies, skipped = [], [], 0
    for E, vals in zip(centers.tolist(), rows):
        try:
            d, _err = _ladder_slope(eps, vals, 2.0 / L)
        except ValueError:
            skipped += 1
            continue
        exps.append(d)
        energies.append(E)
    if not exps:
        raise RuntimeError("all samples below resolution; increase L or eps_max")
    arr = np.array(exps)
    return DosSummary(float(arr.min()), float(np.median(arr)), float(arr.max()),
                      tuple(exps), tuple(energies), skipped)
