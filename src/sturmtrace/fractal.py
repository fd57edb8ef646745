"""Dimension and thickness estimators on band approximations.

Box counting: N(eps) counts the grid-aligned eps-boxes meeting the band
union, and the dimension estimate is the least-squares slope of
log N(eps) against log(1/eps) over a dyadic ladder.  The ladder is kept
inside [4 * smallest band, hull / 4] whenever the set has gaps: below
the smallest band every finite band union looks one-dimensional, so
scales finer than the approximation are excluded rather than reported.
Counts are exact integers.  A block of scales is counted in one pass over
a 2-d array, scales as rows and band edges as columns: floor indices of
the edges, the rule that a right endpoint on a box boundary stays in the
box to its left, a running max of right indices along each row in place
of the boxes earlier bands already counted, and one sum per row.
``BOX_CELLS`` caps the cells of a pass, so a ladder on a few hundred
bands takes one pass and the temporaries stay small on large sets.

Thickness: gaps are removed in order of decreasing length (equal
lengths left to right); each removal compares the gap against the two
bridges flanking it at removal time, and the thickness is the worst
bridge/gap ratio.  A gap's bridges end at the nearest larger gaps on
either side, so two monotone-stack passes over the gaps in band order
find them in linear time: the left bridge ends at the upper end of the
nearest gap to the left at least as long, the right bridge at the lower
end of the nearest gap to the right strictly longer, and the hull ends
where there is none.  Gaps of length <= 0 (touching bands) are ignored.
For the middle-thirds Cantor construction every bridge equals its gap,
giving exactly 1.

The estimators take a BandSet, (lo, hi) pairs or an (n, 2) edge array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dos import _loglog_fit
from .jacobi import JacobiParams, decoupled_block_spectrum
from .spectrum import _clip, _edges, floquet_bands, gap_index_for_label, hausdorff_distance
from .substitution import FIBONACCI, fixed_point_prefix
from .tracemap import recipe_from_substitution

BOX_CELLS = 16384  # scale-by-band cells per box-count pass; bounds its temporaries


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    stderr: float
    scale_min: float
    scale_max: float
    n_scales: int


@dataclass(frozen=True)
class ThicknessEstimate:
    value: float


def _count_boxes(edges, eps):
    """box_count of (n, 2) band edges at a 1-d array of scales, one row per scale."""
    e = eps[:, None]
    j0 = np.floor(edges[:, 0] / e).astype(np.int64)
    j1 = np.floor(edges[:, 1] / e).astype(np.int64)
    j1 -= (edges[:, 1] == j1 * e) & (j1 > j0)  # right endpoint on a box boundary
    # boxes up to the running max of earlier right indices are counted already
    j0[:, 1:] = np.maximum(j0[:, 1:], np.maximum.accumulate(j1, axis=1)[:, :-1] + 1)
    return np.maximum(j1 - j0 + 1, 0).sum(axis=1)


def box_count(bands, eps):
    """Exact number of eps-boxes [j eps, (j+1) eps) meeting the band union.

    ``eps`` is one scale (an int is returned) or an array of scales (an
    integer array of the same shape).  Box indices are int64: a scale
    that is not finite and > 0, or one with some |edge| / eps >= 2**62
    (past which a count can reach 2**63), raises ValueError.
    """
    edges = _edges(bands)
    e = np.asarray(eps, dtype=float)
    if not ((np.isfinite(e) & (e > 0)).all()
            and (np.abs(edges).max(initial=0.0) / 2.0 ** 62 < e).all()):
        raise ValueError("need a finite eps > 0 with every |edge| / eps below 2**62")
    flat = e.ravel()
    counts = np.empty(flat.size, dtype=np.int64)
    rows = max(1, BOX_CELLS // max(len(edges), 1))
    for i in range(0, flat.size, rows):
        counts[i:i + rows] = _count_boxes(edges, flat[i:i + rows])
    return int(counts[0]) if e.ndim == 0 else counts.reshape(e.shape)


def box_dimension(bands, scales=None):
    """Box-counting dimension estimate of a band union.

    With explicit ``scales``, values outside the validity window are
    rejected.  The default ladder halves from hull/4 down to the
    validity floor (at least five scales).
    """
    return _box_dimension(_edges(bands), getattr(bands, "edge_tol", 0.0), scales)


def _box_dimension(edges, edge_tol, scales=None):
    """:func:`box_dimension` of sorted (n, 2) band edges."""
    if not len(edges):
        raise ValueError("empty band set")
    hull = float(edges[-1, 1] - edges[0, 0])
    if hull <= 0:
        raise ValueError("degenerate hull")
    smallest = float((edges[:, 1] - edges[:, 0]).min())
    if len(edges) == 1:
        floor = hull / 2 ** 8
    else:
        floor = max(4.0 * smallest, 100.0 * edge_tol, hull * 2 ** -46)
    ceil = hull / 4.0
    default_ladder = scales is None
    if scales is None:
        scales = []
        e = ceil
        while e >= floor and len(scales) < 40:
            scales.append(e)
            e /= 2.0
        if len(scales) < 5:
            # narrow validity window: geometric ladder inside [floor, ceil]
            if floor >= ceil:
                floor = ceil / 8.0
            ratio = (floor / ceil) ** (1.0 / 7)
            scales = [ceil * ratio ** i for i in range(8)]
    else:
        scales = [e for e in scales]
        bad = [e for e in scales if e < floor or e > ceil]
        if bad:
            raise ValueError("scales outside validity window [%g, %g]: %r"
                             % (floor, ceil, bad))
    if len(scales) < 5:
        raise ValueError("need at least 5 scales")
    eps = np.array(sorted(scales))
    counts = box_count(edges, eps).astype(float)
    if default_ladder and len(edges) > 1:
        # fit the resolved mid-regime: enough boxes to see structure, but
        # not so many that the finite-level approximation is exhausted
        mask = (counts >= 12) & (counts <= 0.7 * len(edges))
        if mask.sum() >= 5:
            eps, counts = eps[mask], counts[mask]
    slope, stderr = _loglog_fit(np.log(1.0 / eps), np.log(counts))
    value = min(max(slope, 0.0), 1.0)
    return DimensionEstimate(value, stderr, float(eps[0]), float(eps[-1]), int(eps.size))


def _nearest_at_least(widths, order, strict):
    """Per gap, the index of the nearest gap before it in ``order`` that is
    at least as long (strictly longer if ``strict``), or -1; gaps of
    length <= 0 are neither looked up nor found."""
    out = [-1] * len(widths)
    stack = []  # candidate indices, lengths decreasing from bottom to top
    for i in order:
        w = widths[i]
        if w <= 0:
            continue
        while stack and (widths[stack[-1]] <= w if strict else widths[stack[-1]] < w):
            stack.pop()
        if stack:
            out[i] = stack[-1]
        stack.append(i)
    return out


def thickness(bands):
    """Newhouse thickness with gaps ordered by decreasing length."""
    edges = _edges(bands)
    if not len(edges):
        raise ValueError("empty band set")
    lo, hi = edges[:-1, 1], edges[1:, 0]
    width = hi - lo
    positive = width > 0
    if not positive.any():
        return ThicknessEstimate(math.inf)
    widths = width.tolist()
    n = len(widths)
    # index -1 reads the hull end appended after the gaps
    left_cut = np.append(hi, edges[0, 0])[_nearest_at_least(widths, range(n), strict=False)]
    right_cut = np.append(lo, edges[-1, 1])[_nearest_at_least(widths, range(n - 1, -1, -1),
                                                              strict=True)]
    bridge = np.minimum(lo - left_cut, right_cut - hi)
    return ThicknessEstimate(float((bridge[positive] / width[positive]).min()))


def local_dimension_profile(s, params, k, window_count, bands=None):
    """Windowed box dimensions across the spectrum hull.

    Splits the hull into window_count equal windows and estimates the
    dimension of bands intersected with each; windows meeting fewer
    than two bands yield None estimates.
    """
    if window_count < 1:
        raise ValueError("need window_count >= 1")
    if bands is None:
        bands = floquet_bands(s, params, k)
    lo, hi = bands.hull()
    width = (hi - lo) / window_count
    edges = _edges(bands)
    out = []
    for i in range(window_count):
        w_lo, w_hi = lo + i * width, lo + (i + 1) * width
        chunk = _clip(edges, w_lo, w_hi)
        center = 0.5 * (w_lo + w_hi)
        if len(chunk) < 2 and window_count > 1:
            out.append((center, None))
            continue
        out.append((center, _box_dimension(chunk, bands.edge_tol)))
    return out


def large_coupling_check(V_list, k=12, s=FIBONACCI):
    """Schrodinger dimensions against the Fibonacci log(1+sqrt2)/log|V| asymptote.

    The asymptote (Damanik-Embree-Gorodetski-Tcheremchantsev, CMP 2008)
    holds for the Fibonacci class, whose trace-map block has every
    factor 1 (Fibonacci, its letter swap, its powers); for any other
    substitution, and for |V| <= 1, where it has no meaning, it is
    reported as NaN.  H(-V) is unitarily -H(V), so the sign of V only
    mirrors the spectrum.  V = 0 (the free case) is skipped.
    """
    fibonacci_class = set(recipe_from_substitution(s).period) == {1}
    rows = []
    for V in V_list:
        if V == 0:
            continue  # free case, dimension 1; asymptote meaningless
        params = JacobiParams(1.0, float(V))
        # strong coupling packs bands below the default relative tolerances
        bands = floquet_bands(s, params, k, tol=3e-14, merge_tol=2e-13)
        est = box_dimension(bands)
        rows.append({
            "V": float(V),
            "dim": est.value,
            "stderr": est.stderr,
            "asymptote": (math.log(1.0 + math.sqrt(2.0)) / math.log(abs(V))
                          if abs(V) > 1 and fibonacci_class else math.nan),
            "bands": bands.band_count,
        })
    return rows


@dataclass(frozen=True)
class GapRateResult:
    t_values: tuple
    widths: tuple
    ratios: tuple
    limit: float
    spread: float
    stable: bool


def gap_opening_rate(s, path, t_list, label_m, k=10):
    """Track one labeled gap along a parameter path toward (1, 0).

    ``path`` maps t to (p, q).  At every t the gap is named by its band
    count: label m is gap j = m q_{k-1} mod q_k of the level-k band set
    (see :func:`~sturmtrace.spectrum.gap_index_for_label`), and the
    wider of the gaps of m and -m is tracked.  The band set must be
    complete (q_k bands), else ValueError.  Ratios
    |gap| / ||(p,q) - (1,0)|| are reported together with the relative
    spread over the last three t values (<= 10% counts as stable).
    """
    t_values = sorted((float(t) for t in t_list), reverse=True)
    if not t_values:
        raise ValueError("need at least one t value")
    widths, ratios = [], []
    for t in t_values:
        if t == 0:
            raise ValueError("t = 0 is the unperturbed point; rate undefined")
        p, q = path(t)
        bands = floquet_bands(s, JacobiParams(float(p), float(q)), k)
        gaps = bands.gaps()
        named = [gaps[gap_index_for_label(s, bands, m) - 1] for m in (label_m, -label_m)]
        width = max(hi - lo for lo, hi in named)
        dist = math.hypot(p - 1.0, q)
        widths.append(width)
        ratios.append(width / dist)
    last = np.array(ratios[-3:]) if len(ratios) >= 3 else np.array(ratios)
    spread = float((last.max() - last.min()) / abs(np.mean(last)))
    return GapRateResult(tuple(t_values), tuple(widths), tuple(ratios),
                         float(np.mean(last)), spread, spread <= 0.10)


def p_to_zero_scan(s, q_fixed, p_list, k=8):
    """Dimension/measure trend as p -> 0, against the decoupled reference set.

    The p = 0 reference is the finite eigenvalue set of the decoupled
    blocks of the first 2048 letters of the fixed point (runs of letter
    1 cut the chain); the Hausdorff distance of each band set to that
    reference tracks the norm collapse.
    """
    word = fixed_point_prefix(s, 2048)
    reference = decoupled_block_spectrum(word, q_fixed)
    rows = []
    for p in sorted((float(p) for p in p_list), reverse=True):
        params = JacobiParams(p, float(q_fixed))
        bands = floquet_bands(s, params, k)
        est = box_dimension(bands)
        rows.append({
            "p": p,
            "dim": est.value,
            "measure": bands.measure(),
            "dist_to_reference": hausdorff_distance(bands, np.stack([reference] * 2, axis=1)),
        })
    return {"reference": tuple(float(v) for v in reference), "rows": rows}
