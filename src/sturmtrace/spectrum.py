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

The points are the eigenvalues of the window w[1:] (LAPACK sterf).  One
is kept when sign_j x_k(mu_j) >= 1 and the points increase strictly
around it, also once the searched points are in place; the sign test
alone also passes in gaps j+-2, j+-4, ...  Every other point is found
by multisection on the Dirichlet count of the window w[:-1], composed
from lifted substitution blocks in O(k) per energy as in the DOS: a
probe with count j-1 or j and sign_j x_k >= 1 lies in gap j, and a lane
whose count bracket shrinks to merge_tol is a closed gap, its point
refined on the count to double resolution.  Points still out of order
after the search raise BandCountError; they are never sorted into
shape.  A gap is also closed when |x_k| - 1 <= 1e-12 at its midpoint or
it is at most merge_tol wide; closed gaps are merged and counted, and a
band set that fails band_count + closed_gaps == q raises BandCountError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import _block_count_below, dirichlet_restriction, initial_conditions_grid
from .substitution import _image_length, _image_prefix_blocks, _image_word
from .tracemap import (ESCAPE_NORM_DEFAULT, MAX_STEPS_POINT, _iterate, _verdicts, classify_batch,
                       recipe_from_substitution)

SATURATION = 1e150         # |x| cap of one trace-map step; keeps the sign in gaps
BISECT_ROUNDS = 128        # halvings of a bracket, ample for any tol above 1 ulp
CLOSED_GAP_EXCESS = 1e-12  # a gap with |x_k(midpoint)| - 1 at most this is closed


class BandCountError(RuntimeError):
    """A band set failed band_count + closed_gaps == q_k, or a bracket failed."""


@dataclass(frozen=True)
class BandSet:
    """Sorted disjoint closed intervals approximating a spectrum.

    ``closed_gaps`` counts the closed gaps merged into the listed bands.
    """

    bands: tuple
    level: int = -1
    edge_tol: float = 0.0
    closed_gaps: int = 0

    def __post_init__(self):
        for (a, b) in self.bands:
            if b < a:
                raise ValueError("band with negative length: (%r, %r)" % (a, b))
        for (_, b), (a2, _) in zip(self.bands, self.bands[1:]):
            if a2 <= b:
                raise ValueError("bands must be sorted and disjoint")

    @property
    def band_count(self):
        return len(self.bands)

    def measure(self):
        return band_measure(self)

    def hull(self):
        if not self.bands:
            raise ValueError("empty band set has no hull")
        return (self.bands[0][0], self.bands[-1][1])

    def gaps(self):
        """Open gaps between consecutive bands (hull exterior excluded)."""
        return [(b1, a2) for (_, b1), (a2, _) in zip(self.bands, self.bands[1:])]


def merge_intervals(intervals):
    """Union of closed intervals (touching ones are glued)."""
    ivs = sorted((float(a), float(b)) for a, b in intervals if b >= a)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def _band_pairs(bands):
    """The (lo, hi) pairs of a BandSet or of a raw pair sequence, as a tuple."""
    return tuple(getattr(bands, "bands", bands))


def restrict_bands(band_list, lo, hi):
    """The bands clipped to [lo, hi]; bands outside the window are dropped."""
    out = []
    for a, b in band_list:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 >= a2:
            out.append((a2, b2))
    return tuple(out)


def band_measure(bands):
    return float(sum(b - a for a, b in _band_pairs(bands)))


def band_sum(A, B):
    """Minkowski sum of two band sets (interval arithmetic, merged)."""
    sums = [(a1 + a2, b1 + b2) for a1, b1 in _band_pairs(A) for a2, b2 in _band_pairs(B)]
    return BandSet(merge_intervals(sums))


def _distance_to_bands(x, bands):
    """Pointwise distance from x (array) to a sorted band union."""
    los = np.array([a for a, _ in bands])
    his = np.array([b for _, b in bands])
    x = np.asarray(x, dtype=float)
    i = np.searchsorted(los, x, side="right") - 1
    inside = (i >= 0) & (x <= his[np.clip(i, 0, len(his) - 1)])
    d_left = np.where(i >= 0, x - his[np.clip(i, 0, len(his) - 1)], np.inf)
    j = np.clip(i + 1, 0, len(los) - 1)
    d_right = np.where(i + 1 < len(los), los[j] - x, np.inf)
    return np.where(inside, 0.0, np.minimum(d_left, d_right))


def hausdorff_distance(A, B):
    """Hausdorff distance between two unions of closed intervals."""
    a_bands, b_bands = _band_pairs(A), _band_pairs(B)
    if not a_bands or not b_bands:
        raise ValueError("Hausdorff distance needs nonempty sets")

    def directed(src, dst):
        pts = [np.array([a for a, _ in src]), np.array([b for _, b in src])]
        if len(dst) > 1:
            mids = np.array([0.5 * (r1 + l2)
                             for (_, r1), (l2, _) in zip(dst, dst[1:])])
            inside_src = _distance_to_bands(mids, src) == 0.0
            pts.append(mids[inside_src])
        x = np.concatenate(pts)
        return float(np.max(_distance_to_bands(x, dst)))

    return max(directed(a_bands, b_bands), directed(b_bands, a_bands))


# -- half-trace evaluation ------------------------------------------------------

def half_trace_grid(recipe, params, E, k):
    """x_k(E) over an energy grid via k periodic-block applications.

    After the start swap and k blocks the y coordinate carries the
    half-trace over s^k(star), for k = 0 the single-letter trace.
    Every U-step saturates at +-SATURATION: deep in a gap, where the
    true value would overflow, the result keeps the sign of 2xz - y.
    """
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


def _search(x, count, mu, sign, j, merge_tol):
    """Points in closed gaps j by multisection on the count, and the lanes found closed.

    A lane's bracket keeps count <= j-1 at its left end and >= j at its
    right end, so it holds the window's Dirichlet eigenvalue of gap j;
    it starts from the neighbouring points where their counts confirm
    that, else from the range ends.  Each round places 15 probes in
    every live bracket.  A probe with count j-1 or j and sign_j x_k >= 1
    lies in gap j and ends its lane; otherwise the bracket shrinks to
    the first probe with count >= j and the point before it.  A lane
    whose bracket shrinks to merge_tol first is a closed gap; its
    bracket goes on shrinking on the count alone until double resolution
    stops it, so that its point is the eigenvalue's, ordered as the
    counts are, and not a point up to merge_tol away.
    """
    ends = count(np.concatenate([mu[j - 1], mu[j + 1]]))
    lo = np.where(ends[:j.size] <= j - 1, mu[j - 1], mu[0])
    hi = np.where(ends[j.size:] >= j, mu[j + 1], mu[-1])
    point, closed = np.empty(j.size), np.zeros(j.size, dtype=bool)
    live = np.arange(j.size)
    while live.size:
        lj, l, h = j[live, None], lo[live, None], hi[live, None]
        E = l + (h - l) * (np.arange(1, 16) / 16.0)
        c = count(E.ravel()).reshape(E.shape)
        hit = (c >= lj - 1) & (c <= lj) & (sign[lj] * x(E.ravel()).reshape(E.shape) >= 1.0)
        found = hit.any(axis=1) & ~closed[live]
        point[live[found]] = E[found, hit[found].argmax(axis=1)]
        # the first probe with count >= j and the point before it
        pts = np.concatenate([l, E, h], axis=1)
        i = 1 + np.argmax(np.concatenate([c >= lj, np.ones_like(h, dtype=bool)], axis=1), axis=1)
        new_lo, new_hi = np.take_along_axis(pts, np.stack([i - 1, i], axis=1), axis=1).T
        stuck = ~found & (new_lo == l[:, 0]) & (new_hi == h[:, 0])   # at double resolution
        closed[live[~found & (new_hi - new_lo <= merge_tol) | stuck]] = True
        lo[live], hi[live] = new_lo, new_hi
        point[live[stuck]] = 0.5 * (new_lo + new_hi)[stuck]
        live = live[~found & ~stuck]
    return point, closed


def _certify(x, count, mu, sign, merge_tol):
    """Certify one point mu_j in each closed gap j, or raise; returns (mu, closed).

    A sterf point is kept when sign_j x_k(mu_j) >= 1 and mu increases
    strictly around it, also once the searched points are in place.
    The sign test alone also passes in gaps j+-2, j+-4, ..., so every
    other lane is found by :func:`_search` on the count of the window
    w[:-1].  ``closed`` marks the lanes it closed; points still out of
    order after the search raise.
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

    Edges are bisected to ``tol`` (default 1e-12 of the energy range);
    gaps at most ``merge_tol`` wide (default 1e-11 of the range) count as
    closed.  ``e_range`` clips the result to a window; the band count is
    checked on the whole level first.
    """
    from scipy.linalg import eigvalsh_tridiagonal  # 0.3 s import, kept off module load

    recipe = recipe or recipe_from_substitution(s)
    hull = default_energy_range(params)
    lo, hi = hull if e_range is None else (float(e_range[0]), float(e_range[1]))
    span = hi - lo
    if span <= 0:
        raise ValueError("empty energy range")
    tol = 1e-12 * span if tol is None else tol
    merge_tol = 1e-11 * span if merge_tol is None else merge_tol
    word = _image_word(s, recipe.star, k)
    q = len(word)
    x = lambda E: half_trace_grid(recipe, params, E, k)
    inner = []
    if q > 1:
        spec = dirichlet_restriction(params, word[1:])
        inner = eigvalsh_tridiagonal(np.asarray(spec.diag, dtype=float),
                                     np.asarray(spec.offdiag[1:], dtype=float),
                                     lapack_driver="sterf")
    mu = np.concatenate([[min(lo, hull[0])], inner, [max(hi, hull[1])]])
    # sign of x_k in gap j (above band j): leading coefficient times (-1)^(q-j)
    sign = np.sign(params.p) ** word.count("1") * (-1.0) ** (q - np.arange(q + 1))
    # Dirichlet counts of the window w[:-1], another q-1 sites of the period
    count = lambda E: _block_count_below(params, s, _image_prefix_blocks(s, recipe.star, k, q - 1),
                                         q - 1, E)
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
    bands = merge_intervals(zip(a[np.concatenate([[0], cut + 1])],
                                b[np.concatenate([cut, [q - 1]])]))
    if len(bands) + int(closed.sum()) != q:
        raise BandCountError("level %d: %d bands + %d closed gaps != %d"
                             % (k, len(bands), int(closed.sum()), q))
    if e_range is not None:
        bands = restrict_bands(bands, lo, hi)
        closed = closed & (mids >= lo) & (mids <= hi)
    return BandSet(bands, level=k, edge_tol=tol, closed_gaps=int(closed.sum()))


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
    _, at, last, max_norm = classify_batch(recipe, *initial_conditions_grid(params, E_list),
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

    Each interior gap gets the IDS value at its midpoint; the nearest
    label frac(m alpha), |m| <= m_max (ties to smaller |m|), is attached
    when it lies within ``tol``, otherwise label_m stays None.
    """
    gaps = bands.gaps()
    m = np.arange(-m_max, m_max + 1)
    lam = np.array([math.fmod(k * alpha, 1.0) % 1.0 for k in m.tolist()])
    # sorted distinct label values, each kept with its smallest |m| (then smallest m)
    order = np.lexsort((m, np.abs(m), lam))
    lam, m = lam[order], m[order]
    first = np.concatenate([[True], lam[1:] != lam[:-1]])
    lam, m = lam[first], m[first]
    values = np.array([float(ids_table.value_at(0.5 * (g_lo + g_hi))) for g_lo, g_hi in gaps])
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
