"""Periodic-approximation spectra as band sets, gaps, and set operations.

The level-k approximation repeats the period word w = s^k(star), q = |w|
letters; E lies in its spectrum iff the half-trace x_k(E) of the
transfer matrix over one period lies in [-1, 1].  x_k is evaluated
through the trace map, O(k) per energy instead of O(q).

Each level is solved on its own.  Every window of q-1 consecutive sites
of the period has one Dirichlet eigenvalue in each closed gap (Teschl,
*Jacobi Operators and Completely Integrable Nonlinear Lattices*, ch. 7),
so band j lies between points mu_{j-1} and mu_j of gaps j-1 and j, mu_0
and mu_q being the ends of the energy range.  x_k has sign
sign(p)^(#1s in w) (-1)^(q-j) in gap j, so each edge is the one sign
change of sign * x_k - 1 on its bracket; all 2q edges are bisected at
once.

For q up to STERF_MAX_Q the points are seeded by the eigenvalues of the
window w[1:] (LAPACK dsterf, O(q^2)), called through ctypes in the
OpenBLAS that numpy's wheel ships; no solve imports scipy.  One is kept
when sign_j x_k(mu_j) >= 1 and the points increase strictly around it,
also once the searched points are in place; the sign test alone also
passes in gaps j+-2, j+-4, ...  Above STERF_MAX_Q, or where numpy ships
no dsterf, nothing is seeded.  Every lane without a kept point is found
by one multisection on the Dirichlet count of the window w[:-1], whose
probes all lanes share.  The count is read in O(k) per energy off the lifted
pivot maps of the whole period w, the blocks s^k(star) (see jacobi.py),
so the window needs no blocks of its own.  A probe with count j-1 or j
and sign_j x_k >= 1 lies in gap j.  Where the counts at the ends of an
interval are j-1 and j, the interval lies between the window's
eigenvalues in gaps j-1 and j+1, in which x_k has sign -sign_j; there
sign_j x_k >= 1 alone certifies a probe, and the probes inside are not
counted.  A lane whose count interval shrinks to merge_tol is a closed
gap, its point refined on the count to double resolution.  Points
still out of order after the search raise BandCountError; they are
never sorted into shape.  A gap is also closed when |x_k| - 1 <= 1e-12
at its midpoint or it is at most merge_tol wide; closed gaps are merged
and counted, so band_count + closed_gaps == q, and edges too far out of
order to merge into bands raise BandCountError.

The band-set helpers take a BandSet, (lo, hi) pairs or an (n, 2) array,
and read it as one (n, 2) float array of edges.
"""

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .jacobi import _window_count_below, dirichlet_restriction, initial_conditions_grid
from .substitution import _image_length, _image_word
from .tracemap import (ESCAPE_NORM_DEFAULT, MAX_STEPS_POINT, _iterate, _verdicts, classify_batch,
                       recipe_from_substitution)

SATURATION = 1e150         # |x| cap of one trace-map step; keeps the sign in gaps
BISECT_ROUNDS = 128        # halvings of a bracket, ample for any tol above 1 ulp
COUNT_CHUNK = 4096         # energies per lifted-count call of the search
# dsterf (from numpy's OpenBLAS, see _dsterf) seeds the Dirichlet points up
# to this q; above it the search alone is faster.  Warm solves, medians of
# 9, 2-CPU x86 machine: at q = 1393 (metal-mean k = 8) the search takes
# 35 ms against sterf's 41 ms at (p, q) = (1.087, 1.854), but 66 against
# 46 ms at V = 24, whose clustered bands cost the search more probes per
# lane; at q = 2584 (Fibonacci k = 16) 50 against 114 ms and 92 against
# 115 ms.
STERF_MAX_Q = 1500
CLOSED_GAP_EXCESS = 1e-12  # a gap with |x_k(midpoint)| - 1 at most this is closed


class BandCountError(RuntimeError):
    """A band set failed band_count + closed_gaps == q_k, or a bracket failed."""


def _value_eq(a, b):
    """== of two objects of one dataclass: every compared field equal by value, arrays too."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a) if f.compare)


@dataclass(frozen=True, eq=False)
class BandSet:
    """Sorted disjoint closed intervals approximating a spectrum.

    ``edges`` holds them as a read-only (n, 2) float64 copy, and ``bands``
    as a tuple of (lo, hi) pairs built on each read.  ``closed_gaps``
    counts the closed gaps merged into the listed bands.
    """

    edges: np.ndarray
    level: int = -1
    edge_tol: float = 0.0
    closed_gaps: int = 0
    __eq__ = _value_eq
    bands = property(lambda self: tuple(map(tuple, self.edges.tolist())))

    def __post_init__(self):
        a = np.array(self.edges, dtype=np.float64)
        e = a.reshape(-1, 2)
        if a.size and a.shape != e.shape:
            raise ValueError("bands must be (lo, hi) pairs")
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)
        # each check fails on a NaN as well
        bad = ~(e[:, 1] >= e[:, 0])
        if bad.any():
            raise ValueError("band with negative length: (%r, %r)" % tuple(e[bad][0].tolist()))
        if not (e[1:, 0] > e[:-1, 1]).all():
            raise ValueError("bands must be sorted and disjoint")

    def __repr__(self):
        return "BandSet(bands=%r, level=%r, edge_tol=%r, closed_gaps=%r)" % (
            self.bands, self.level, self.edge_tol, self.closed_gaps)

    @property
    def band_count(self):
        return len(self.edges)

    def measure(self):
        return band_measure(self)

    def hull(self):
        if not len(self.edges):
            raise ValueError("empty band set has no hull")
        return (float(self.edges[0, 0]), float(self.edges[-1, 1]))

    def gaps(self):
        """Open gaps between consecutive bands (hull exterior excluded)."""
        return list(zip(self.edges[:-1, 1].tolist(), self.edges[1:, 0].tolist()))


def _edges(bands):
    """A BandSet, (lo, hi) pairs or an (n, 2) array, as an (n, 2) float array of band edges."""
    return np.asarray(getattr(bands, "edges", bands), dtype=float).reshape(-1, 2)


def _clip(edges, lo, hi):
    """(n, 2) band edges clipped to [lo, hi], the bands outside dropped; ties,
    signed zeros and NaN keep the edge, as Python's max(a, lo), min(b, hi) do."""
    a = np.where(lo > edges[:, 0], lo, edges[:, 0])
    b = np.where(hi < edges[:, 1], hi, edges[:, 1])
    keep = b >= a
    return np.stack([a[keep], b[keep]], axis=1)


def merge_intervals(intervals):
    """Union of closed intervals (touching ones are glued); intervals with b < a are dropped."""
    m = _merged(_edges(intervals))
    return tuple(zip(m[:, 0].tolist(), m[:, 1].tolist()))


def _merged(e):
    """:func:`merge_intervals` of (n, 2) edges, as an (m, 2) edge array."""
    e = e[e[:, 1] >= e[:, 0]]
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    reach = np.maximum.accumulate(e[:, 1])
    # a union starts where no earlier interval reaches, and ends at the end of
    # its first interval that reaches furthest (the one Python's max() keeps)
    start = np.concatenate([[True], e[1:, 0] > reach[:-1]])[:len(e)]
    end = np.searchsorted(reach, reach[np.roll(start, -1)])
    return np.stack([e[start, 0], e[end, 1]], axis=1)


def restrict_bands(band_list, lo, hi):
    """The bands clipped to [lo, hi]; bands outside the window are dropped."""
    return tuple(zip(*_clip(_edges(band_list), lo, hi).T.tolist()))


def band_measure(bands):
    """Total length of the bands, summed in band order (not numpy's pairwise sum)."""
    return float(sum(np.diff(_edges(bands)).ravel().tolist()))


def band_sum(A, B):
    """Minkowski sum of two band sets (interval arithmetic, merged)."""
    a, b = _edges(A), _edges(B)
    return BandSet(_merged((a[:, None, :] + b[None, :, :]).reshape(-1, 2)))


def _distance_to_bands(x, bands):
    """Pointwise distance from x (array) to a sorted band union."""
    e = _edges(bands)
    los, his = e[:, 0], e[:, 1]
    x = np.asarray(x, dtype=float)
    i = np.searchsorted(los, x, side="right") - 1
    inside = (i >= 0) & (x <= his[np.clip(i, 0, len(his) - 1)])
    d_left = np.where(i >= 0, x - his[np.clip(i, 0, len(his) - 1)], np.inf)
    j = np.clip(i + 1, 0, len(los) - 1)
    d_right = np.where(i + 1 < len(los), los[j] - x, np.inf)
    return np.where(inside, 0.0, np.minimum(d_left, d_right))


def hausdorff_distance(A, B):
    """Hausdorff distance between two unions of closed intervals."""
    a_edges, b_edges = _edges(A), _edges(B)
    if not len(a_edges) or not len(b_edges):
        raise ValueError("Hausdorff distance needs nonempty sets")

    def directed(src, dst):
        # the ends of src, and the midpoints of the gaps of dst that src covers
        mids = 0.5 * (dst[:-1, 1] + dst[1:, 0])
        x = np.concatenate([src[:, 0], src[:, 1], mids[_distance_to_bands(mids, src) == 0.0]])
        return float(np.max(_distance_to_bands(x, dst)))

    return max(directed(a_edges, b_edges), directed(b_edges, a_edges))


# -- half-trace evaluation ------------------------------------------------------

def half_trace_grid(recipe, params, E, k):
    """x_k(E) over an energy grid via k periodic-block applications.

    After the start swap and k blocks the y coordinate carries the
    half-trace over s^k(star), for k = 0 the single-letter trace.
    Every U-step saturates at +-SATURATION: deep in a gap, where the
    true value would overflow, the result keeps the sign of 2xz - y.
    The clip does not reach the start x of initial_conditions_grid,
    which is already inf above |E| of about 1.34e154 min(1, sqrt(2|p|))
    (E*E or its quotient by 2p overflows); there the result can be inf
    or NaN.  No energy of the band solver, within 2 + |q| + 2|p| of 0,
    comes near that bound at any parameters of practical size.
    """
    E = np.asarray(E, dtype=float)
    if E.ndim == 0:   # the kernel clips in place, on arrays
        return half_trace_grid(recipe, params, E[None], k)[0]
    x, y, z = initial_conditions_grid(params, E)
    if recipe.swapped_start:
        y, z = z, y
    return _iterate(recipe.period * k, x, y, z, bound=SATURATION)[1]


def default_energy_range(params):
    """Interval guaranteed to contain every periodic-approximation spectrum."""
    r = 2.0 + abs(params.q) + 2.0 * abs(params.p)
    return (-r, r)


# -- band solver ----------------------------------------------------------------

def _bisect(is_out, out, inn, tol):
    """Shrink each lane's (out, inn) pair onto the boundary of {is_out}."""
    for _ in range(BISECT_ROUNDS):
        if np.max(np.abs(out - inn)) <= tol:
            break
        mid = 0.5 * (out + inn)
        o = is_out(mid)
        out, inn = np.where(o, mid, out), np.where(o, inn, mid)
    return out, inn


def _runs(n):
    """The run index and the place in its run of each element of runs n long."""
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) - (np.cumsum(n) - n)[owner]


def _counts(count, E):
    """count(E) taken COUNT_CHUNK energies at a time."""
    return np.concatenate([count(E[i:i + COUNT_CHUNK]) for i in range(0, E.size, COUNT_CHUNK)]
                          or [np.zeros(0, dtype=np.int64)])


def _search(x, count, mu, sign, j, merge_tol):
    """Points in closed gaps j by one multisection on the count, and the lanes found closed.

    All lanes share the probes.  The search keeps sorted probe energies
    P with their counts C, starting from the range ends and the points
    mu[j-1], mu[j+1]; an interval (P_i, P_i+1) holds the open lanes j
    with C_i < j <= C_i+1, whose eigenvalue of the window it brackets.
    Each round every interval holding n > 0 open lanes gets min(15, 2n+1)
    evenly spaced probes, and x_k is evaluated at all of them in one
    batch.  An interval with C_i+1 - C_i = 1 holds one lane j and lies
    between the window's eigenvalues in gaps j-1 and j+1, gaps in which
    x_k carries -sign_j; so a probe strictly inside it with
    sign_j x_k >= 1 is in gap j.  The lowest such probe ends the lane if
    it is not closed, and the interval's inner probes are not counted
    (the sign certificate: the count certificate would accept the same
    probe).  The remaining probes are counted in one batch.  A probe
    with count c and |x_k| >= 1 lies in gap c or gap c+1, and the sign
    of x_k tells which: it ends that lane (the count certificate: count
    in {j-1, j} and sign_j x_k >= 1) if its interval holds the lane, so
    a miscounted probe cannot end a lane held elsewhere.  When an interval
    shrinks to merge_tol, one probe merge_tol/2 beyond each end looks for
    a gap that starts at that end (an end on a band edge can fail the
    sign test by rounding); its lanes still open after that round are
    closed.  Closed lanes go on shrinking on the count alone until double
    resolution stops them, so that each point is its eigenvalue's,
    ordered as the counts are, and not a point up to merge_tol away.
    Probes that border no live interval are dropped.  A lane that no
    interval holds any more raises BandCountError.
    """
    P = np.unique(mu[np.union1d([0, mu.size - 1], np.concatenate([j - 1, j + 1]))])
    P = P[np.isfinite(P)]
    C = _counts(count, P)
    point, closed = np.full(j.size, np.nan), np.zeros(j.size, dtype=bool)
    open_ = np.ones(j.size, dtype=bool)
    while True:
        # the open lanes each interval holds; probes bordering none are dropped
        at = np.flatnonzero(open_)
        first = np.searchsorted(j[at], C[:-1], side="right")
        n = np.maximum(np.searchsorted(j[at], C[1:], side="right") - first, 0)
        live = n > 0
        lo, hi, first, n = P[:-1][live], P[1:][live], first[live], n[live]
        C_lo, C_hi = C[:-1][live], C[1:][live]
        border = np.concatenate([live, [False]]) | np.concatenate([[False], live])
        P, C = P[border], C[border]
        owner, place = _runs(n)
        held = at[first[owner] + place]
        m = np.minimum(15, 2 * n + 1)
        iv, t = _runs(m)
        E = lo[iv] + (hi - lo)[iv] * ((t + 1.0) / (m[iv] + 1.0))
        # an interval no probe splits is at double resolution: its lanes end closed
        stuck = np.bincount(iv[(E > lo[iv]) & (E < hi[iv])], minlength=m.size) == 0
        ended = stuck[owner]
        point[held[ended]] = 0.5 * (lo + hi)[owner[ended]]
        closed[held[ended]], open_[held[ended]] = True, False
        closing = np.zeros(j.size, dtype=bool)
        closing[held[(hi - lo <= merge_tol)[owner] & ~closed[held]]] = True
        fresh = np.unique(owner[closing[held]])
        E = np.concatenate([E[~stuck[iv]], lo[fresh] - 0.5 * merge_tol,
                            hi[fresh] + 0.5 * merge_tol])
        iv = np.concatenate([iv[~stuck[iv]], fresh, fresh])   # the interval each probe is for
        E, first = np.unique(E, return_index=True)
        new = ~np.isin(E, P)
        E, iv = E[new], iv[first][new]
        if not E.size:
            break
        v = x(E)
        # the sign certificate: counts j-1 and j at an interval's ends put it
        # between the window's eigenvalues in gaps j-1 and j+1, where x_k has
        # sign -sign_j, so an inner probe with sign_j x_k >= 1 is in gap j
        inside = (E > lo[iv]) & (E < hi[iv])
        top = held[np.cumsum(n) - 1]   # each interval's last lane, its only one if n == 1
        sure = ((C_hi - C_lo == 1) & ~closed[top])[iv] & inside & (sign[C_hi[iv]] * v >= 1.0)
        lanes, first = np.unique(top[iv[sure]], return_index=True)
        point[lanes], open_[lanes] = E[sure][first], False
        kept = ~(np.isin(iv, iv[sure]) & inside)
        E, iv, v = E[kept], iv[kept], v[kept]
        c = _counts(count, E)
        # the gap c or c+1 that the sign of x_k picks, when |x_k| >= 1
        up = sign[c] * v >= 1.0
        lane = np.where(up, c, c + 1)
        pos = np.minimum(np.searchsorted(j, lane), j.size - 1)
        hit = ((up | (sign[c + 1] * v >= 1.0)) & (C_lo[iv] < lane) & (lane <= C_hi[iv])
               & (j[pos] == lane) & open_[pos] & ~closed[pos])
        pos, first = np.unique(pos[hit], return_index=True)
        point[pos], open_[pos] = E[hit][first], False
        closed |= closing & open_
        order = np.argsort(np.concatenate([P, E]), kind="stable")
        P, C = np.concatenate([P, E])[order], np.concatenate([C, c])[order]
    if open_.any():
        raise BandCountError("%d Dirichlet lanes left without a point" % open_.sum())
    return point, closed


@functools.cache
def _dsterf():
    """LAPACK dsterf of the OpenBLAS that numpy's wheel ships, or None.

    The wheel loads that library on ``import numpy`` and exports LAPACK
    through its ILP64 interface as ``scipy_dsterf_64_`` (64-bit integer
    arguments); the symbol is a build detail of the wheel, not numpy API.
    """
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root + ".libs", "libscipy_openblas64_*"))
                       + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas64_*"))):
        try:
            fn = ctypes.CDLL(path).scipy_dsterf_64_
        except (OSError, AttributeError):
            continue
        vec = np.ctypeslib.ndpointer(np.float64, 1, flags=("C_CONTIGUOUS", "WRITEABLE"))
        fn.argtypes = [ctypes.POINTER(ctypes.c_int64), vec, vec, ctypes.POINTER(ctypes.c_int64)]
        fn.restype = None
        return fn
    return None


def _sterf(d, e):
    """Ascending eigenvalues of the symmetric tridiagonal matrix (d, e), by LAPACK dsterf.

    All NaN when the library or its symbol is missing or dsterf fails:
    a NaN seed is never kept, so every lane is then searched.
    """
    d = np.array(d, dtype=np.float64)   # dsterf overwrites both
    e = np.array(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError("need n diagonal and n-1 off-diagonal entries: %r, %r"
                         % (d.shape, e.shape))
    fn, info = _dsterf(), ctypes.c_int64(0)
    if fn is not None:
        fn(ctypes.byref(ctypes.c_int64(d.size)), d, e, ctypes.byref(info))
    if fn is None or info.value != 0:
        d[:] = np.nan
    return d


def _certify(x, count, mu, sign, merge_tol):
    """Certify one point mu_j in each closed gap j, or raise; returns (mu, closed).

    A seeded (sterf) point is kept when sign_j x_k(mu_j) >= 1 and mu
    increases strictly around it, also once the searched points are in
    place; a NaN seed is never kept.  The sign test alone also passes in
    gaps j+-2, j+-4, ..., so every other lane is found by :func:`_search`
    on the count of the window w[:-1].  ``closed`` marks the lanes it
    closed; points still out of order after the search raise.
    """
    v = sign * x(mu)
    if not (v[0] >= 1.0 and v[-1] >= 1.0):
        raise BandCountError("energy range does not enclose the spectrum")
    keep = (v[1:-1] >= 1.0) & (mu[:-2] < mu[1:-1]) & (mu[1:-1] < mu[2:])
    closed = np.zeros(keep.size, dtype=bool)
    j = 1 + np.flatnonzero(~keep)
    while j.size:
        mu[j], closed[j - 1] = _search(x, count, mu, sign, j, merge_tol)
        # kept points now out of order with searched ones are searched too
        j = 1 + np.flatnonzero(keep & ~((mu[:-2] < mu[1:-1]) & (mu[1:-1] < mu[2:])))
        keep[j - 1] = False
    if np.any(mu[1:] < mu[:-1]):
        raise BandCountError("%d Dirichlet points out of order" % np.sum(mu[1:] < mu[:-1]))
    return mu, closed


def floquet_bands(s, params, k, e_range=None, tol=None, merge_tol=None, recipe=None):
    """Level-k periodic-approximation spectrum as a BandSet.

    Edges are bisected to ``tol`` (default 1e-12 of the energy range; a
    negative, infinite or NaN one raises ValueError); gaps at most
    ``merge_tol`` wide (default 1e-11 of the range; a negative, infinite
    or NaN one raises ValueError) count as closed.  ``e_range`` clips
    the result to a window; the band count is checked on the whole level
    first.
    """
    recipe = recipe or recipe_from_substitution(s)
    hull = default_energy_range(params)
    lo, hi = hull if e_range is None else (float(e_range[0]), float(e_range[1]))
    span = hi - lo
    if not 0 < span < math.inf:
        raise ValueError("energy range must be finite and nonempty: %r" % ((lo, hi),))
    tol = 1e-12 * span if tol is None else tol
    merge_tol = 1e-11 * span if merge_tol is None else merge_tol
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0: %r" % tol)
    if not 0 <= merge_tol < math.inf:
        raise ValueError("merge_tol must be finite and >= 0: %r" % merge_tol)
    word = _image_word(s, recipe.star, k)
    q = len(word)
    x = lambda E: half_trace_grid(recipe, params, E, k)
    inner = np.full(q - 1, np.nan)   # no seed passes: every lane is searched
    if 1 < q <= STERF_MAX_Q:
        spec = dirichlet_restriction(params, word[1:])
        inner = _sterf(spec.diag, spec.offdiag[1:])
    mu = np.concatenate([[min(lo, hull[0])], inner, [max(hi, hull[1])]])
    # sign of x_k in gap j (above band j): leading coefficient times (-1)^(q-j)
    sign = np.sign(params.p) ** word.count("1") * (-1.0) ** (q - np.arange(q + 1))
    # Dirichlet counts of the window w[:-1], another q-1 sites of the period
    count = lambda E: _window_count_below(params, s, recipe.star, k, q - 1, E)
    mu, shut = _certify(x, count, mu, sign, merge_tol)   # shut: gaps the search closed
    # left edges: sign[j-1] x_k - 1 leaves >= 0; right edges: sign[j] x_k - 1 reaches it
    lane_sign = np.concatenate([sign[:-1], sign[1:]])
    out, inn = _bisect(lambda E: lane_sign * x(E) >= 1.0,
                       np.concatenate([mu[:-1], mu[1:]]),
                       np.concatenate([mu[1:], mu[:-1]]), tol)
    edges = 0.5 * (out + inn)
    a, b = edges[:q], edges[q:]
    if np.any(a - b > tol) or np.any(a[1:] - b[:-1] < -tol):
        raise BandCountError("level %d: band edges out of order" % k)
    b = np.maximum(a, b)
    mids = 0.5 * (b[:-1] + a[1:])
    closed = shut | (a[1:] - b[:-1] <= merge_tol) | (np.abs(x(mids)) - 1.0 <= CLOSED_GAP_EXCESS)
    cut = np.flatnonzero(~closed)
    # one band per open gap and one more, so band_count + closed_gaps == q;
    # open gaps are wider than merge_tol >= 0, so the bands are disjoint
    lo_e, hi_e = a[np.concatenate([[0], cut + 1])], b[np.concatenate([cut, [q - 1]])]
    if np.any(hi_e < lo_e):
        raise BandCountError("level %d: %d merged bands end below their start"
                             % (k, np.sum(hi_e < lo_e)))
    if e_range is not None:
        lo_e, hi_e = _clip(np.stack([lo_e, hi_e], axis=1), lo, hi).T
        closed = closed & (mids >= lo) & (mids <= hi)
    return BandSet(np.stack([lo_e, hi_e], 1), level=k, edge_tol=tol, closed_gaps=int(closed.sum()))


def floquet_band_tower(s, params, k_max, tol=None, merge_tol=None):
    """Band sets of every level 0..k_max (each level is solved on its own)."""
    return {k: floquet_bands(s, params, k, tol=tol, merge_tol=merge_tol)
            for k in range(k_max + 1)}


# -- dynamical spectrum, gaps, labels --------------------------------------------

def dynamical_spectrum_probe(s, params, E_list, max_steps=MAX_STEPS_POINT,
                             escape_norm=ESCAPE_NORM_DEFAULT, recipe=None):
    """classify() of the curve of initial conditions at each energy, in one batch."""
    if recipe is None:
        recipe = recipe_from_substitution(s)
    at, last, max_norm = classify_batch(recipe, *initial_conditions_grid(params, E_list),
                                        max_steps=max_steps, escape_norm=escape_norm)
    return _verdicts(at, last, max_norm, max_steps)


@dataclass(frozen=True)
class Gap:
    lo: float
    hi: float
    ids_value: float
    label_value: float = math.nan
    label_m: int | None = None

    @property
    def width(self):
        return self.hi - self.lo


def _label_periods(s, bands, recipe):
    """(q_k, q_{k-1}) of a level-k band set; labels need all q_k bands."""
    star = (recipe or recipe_from_substitution(s)).star
    k = bands.level
    if k < 1:
        raise ValueError("need a level >= 1 band set")
    q_k, q_km1 = _image_length(s, star, k), _image_length(s, star, k - 1)
    if bands.band_count != q_k:
        raise ValueError("band set incomplete: %d of %d bands; labels undefined"
                         % (bands.band_count, q_k))
    return q_k, q_km1


def combinatorial_gap_label(s, bands, gap_index, recipe=None):
    """Gap label from band counting alone (no IDS evaluation).

    The level-k approximation has period length q_k; the gap with j
    bands below it carries IDS value j/q_k, which converges to the
    label frac(m alpha) with m = j * inverse(q_{k-1}) mod q_k (balanced
    residue).  Requires the band set to be completely detected, i.e.
    band count equal to q_k.
    """
    q_k, q_km1 = _label_periods(s, bands, recipe)
    j = int(gap_index)
    if not 1 <= j <= q_k - 1:
        raise ValueError("gap index out of range")
    m = (j * pow(q_km1, -1, q_k)) % q_k
    if m > q_k // 2:
        m -= q_k
    return m


def gap_index_for_label(s, bands, m):
    """Inverse of :func:`combinatorial_gap_label`: 1-based gap index of label m."""
    q_k, q_km1 = _label_periods(s, bands, None)
    j = (int(m) * q_km1) % q_k
    if not 1 <= j <= q_k - 1:
        raise ValueError("label m = %d has no gap at level %d" % (m, bands.level))
    return j


def gaps_with_labels(bands, ids_table, alpha, m_max=34, tol=1e-3):
    """Label spectral gaps with IDS plateau values matched to frac(m alpha).

    Each interior gap gets the IDS table's step value at its midpoint
    (one IdsTable.value_at lookup for all of them); the nearest label
    frac(m alpha), |m| <= m_max (ties to smaller |m|), is attached when
    it lies within ``tol``, otherwise label_m stays None.  m_max < 0,
    and a tol that is negative or NaN, raise ValueError.
    """
    if m_max < 0:
        raise ValueError("need m_max >= 0: %r" % m_max)
    if not tol >= 0:
        raise ValueError("need tol >= 0: %r" % tol)
    gaps = bands.gaps()
    m = np.arange(-m_max, m_max + 1)
    lam = np.array([math.fmod(k * alpha, 1.0) % 1.0 for k in m.tolist()])
    # sorted distinct label values, each kept with its smallest |m| (then smallest m)
    order = np.lexsort((m, np.abs(m), lam))
    lam, m = lam[order], m[order]
    first = np.concatenate([[True], lam[1:] != lam[:-1]])
    lam, m = lam[first], m[first]
    values = ids_table.value_at(0.5 * (bands.edges[:-1, 1] + bands.edges[1:, 0]))
    # the nearest label is a neighbour of the value in sorted order; equal
    # distances go to the smaller |m|, then to the smaller m
    hi = np.minimum(np.searchsorted(lam, values), lam.size - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo, d_hi = np.abs(lam[lo] - values), np.abs(lam[hi] - values)
    closer = (np.abs(m[hi]) < np.abs(m[lo])) | ((np.abs(m[hi]) == np.abs(m[lo])) & (m[hi] < m[lo]))
    best = np.where((d_hi < d_lo) | ((d_hi == d_lo) & closer), hi, lo)
    out = []
    for (g_lo, g_hi), value, dist, label, label_m in zip(
            gaps, values.tolist(), np.minimum(d_lo, d_hi).tolist(), lam[best].tolist(),
            m[best].tolist()):
        if dist <= tol:
            out.append(Gap(g_lo, g_hi, value, label, label_m))
        else:
            out.append(Gap(g_lo, g_hi, value))
    return out
