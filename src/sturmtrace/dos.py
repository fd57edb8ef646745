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

The count is monotone in E, so on a Cantor spectrum most of a fine grid
sits on plateaus where it cannot change.  A large table (ids) and the
summary's table of sample energies are therefore filled alike
(_filled_counts): one count of every 16th grid point, then one of the
interior points of the cells the caller picks, every other point taking
its cell's left-end count.  ids picks every cell whose end counts
differ, so its table is the full count's; the summary picks the cells
that hold a draw, so its table is exact wherever a quantile reads it.

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


def _check_energy_grid(e):
    """Refuse an energy grid that is not 1-d, strictly increasing (so NaN-free)
    and at least 2 points long."""
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need aligned 1-d grids with >= 2 points")
    if not (np.diff(e) > 0).all():
        raise ValueError("energy grid must be strictly increasing")


@dataclass(frozen=True, eq=False)
class IdsTable:
    """Monotone sampled IDS, its grids kept as read-only 1-d float64 copies,
    counted on the first L sites (L a whole number >= 1)."""

    e_grid: np.ndarray
    n_values: np.ndarray
    L: int
    __eq__ = _value_eq

    def __post_init__(self):
        e, n = np.array(self.e_grid, dtype=np.float64), np.array(self.n_values, dtype=np.float64)
        e.flags.writeable = n.flags.writeable = False
        object.__setattr__(self, "e_grid", e)
        object.__setattr__(self, "n_values", n)
        if e.shape != n.shape:
            raise ValueError("need aligned 1-d grids with >= 2 points")
        _check_energy_grid(e)
        if not (np.diff(n) >= 0).all():   # fails on a NaN as well
            raise ValueError("IDS values must be nondecreasing")
        if not (self.L >= 1 and self.L % 1 == 0):   # NaN and inf too
            raise ValueError("need a whole number L >= 1, got L = %r" % (self.L,))

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
    word is never built.  Raises ValueError for |p| > 1e9, then for
    L < 1 or an L that is not a whole number, and
    UnsupportedSubstitutionError when the fixed letter grows only
    linearly (see substitution._prefix_blocks).
    """
    if not abs(params.p) <= _MAX_HOPPING:
        raise ValueError("IDS counts are checked for |p| <= %g only" % _MAX_HOPPING)
    if L < 1:
        raise ValueError("need L >= 1, got L = %r" % L)
    sp, blocks = _prefix_blocks(s, L)
    blocks = blocks + [(0, "0")]   # the count reads one letter past its L sites, any letter

    def counter(E):
        E_arr = np.atleast_1d(np.asarray(E, dtype=float))
        vals = _block_count_below(params, sp, blocks, L, E_arr) / float(L)
        return vals if np.ndim(E) else float(vals[0])

    counter.L = L
    return counter


# Grids of at least this many points are filled (see ids), smaller ones
# counted in one call.  Timed against one full count on linspace grids
# over the hull, five (s, p, q, L) cases, interleaved medians on a 2-CPU
# x86-64 sandbox: the two-call fill lost every case at 512-1024 points,
# was mixed at 1536-2560 and won every case from 2816 up (4.3-7.7 ms
# against 6.1-12.7 ms at 4097 points, 4.6-9.2 against 13.0-23.0 at 8193).
_FILL_MIN_POINTS = 3072


def _filled_counts(counter, grid, pick_cells):
    """Counts over the grid in two counter calls, the second as small as the
    cells picked.

    The first call counts every 16th grid point and the last; these split
    the grid into cells, cell c running from the c-th to the (c+1)-th of
    them.  pick_cells maps those counts to a boolean mask over the cells,
    and the second call counts every interior point of each picked cell.
    Every other point takes its cell's left-end count.  A count does not
    depend on the energies counted with it, so each counted point holds
    the count the full grid gives it.
    """
    idx = np.append(np.arange(0, grid.size - 1, 16), grid.size - 1)
    coarse = counter(grid[idx])
    widths = np.diff(idx)
    n = np.append(np.repeat(coarse[:-1], widths), coarse[-1])
    fine = np.repeat(pick_cells(coarse), widths)
    fine[idx[:-1]] = False
    fine = np.flatnonzero(fine)
    if fine.size:
        n[fine] = counter(grid[fine])
    return n


def ids(s, params, L, e_grid):
    """IDS table over a strictly increasing energy grid.

    A grid of fewer than _FILL_MIN_POINTS points is counted in one
    batched call.  A larger one is filled in two (see _filled_counts):
    every 16th point and the last, then every interior point of each
    such cell whose two end counts differ.  The Dirichlet count is
    monotone in E, so a cell whose ends agree holds no eigenvalue, and
    its points take that count: the table is the one the full count
    gives.

    Refuses as :func:`ids_counter` does, then L < 8, then a grid that is
    not 1-d with >= 2 strictly increasing points (NaN included), with
    ValueError before any count.
    """
    counter = ids_counter(s, params, L)
    if L < 8:
        raise ValueError("need L >= 8")
    e = np.asarray(e_grid, dtype=float)
    _check_energy_grid(e)
    if e.size < _FILL_MIN_POINTS:
        return IdsTable(e, counter(e), L)
    return IdsTable(e, _filled_counts(counter, e, lambda c: c[:-1] != c[1:]), L)


def _cells_holding(u):
    """Cell picker for _filled_counts: the cells whose right end is the first
    coarse point with N >= u for some draw u.  Such a cell's left end is
    below u, so its end counts differ."""
    return lambda coarse: np.isin(np.arange(1, coarse.size), np.searchsorted(coarse, u))


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


def dos_dimension_summary(s, params, sample_count, L, seed=0, eps_max=None, n_scales=7):
    """Scaling exponents at dN-sampled energies, summarized.

    The energies are inverse-transform draws u from the IDS on the grid
    np.linspace(lo, hi, 4097) over the spectrum hull: the first grid
    energy with N >= u (so gap plateaus are never hit), read with
    IdsTable.quantile.  The table is filled as in ids, but only the
    cells that hold a draw are counted in full (see _cells_holding),
    so the count takes three calls: the 257 coarse points, the drawn
    cells, and the ladders.  Each sample's exponent is the fit over
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
    table = IdsTable(grid, _filled_counts(counter, grid, _cells_holding(draws)), L)
    # the table is exact on every cell a draw reads: below the drawn cell
    # every value is below u, and the drawn cell and its right end are counted
    centers = table.quantile(draws)
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
