"""Dimension and thickness estimators on band approximations.

Box counting: N(eps) counts the grid-aligned eps-boxes meeting the band
union, and the dimension estimate is the least-squares slope of
log N(eps) against log(1/eps) over a dyadic ladder.  The ladder is kept
inside [4 * smallest band, hull / 4] whenever the set has gaps: below
the smallest band every finite band union looks one-dimensional, so
scales finer than the approximation are excluded rather than reported.

Thickness: gaps are removed in order of decreasing length; each removal
compares the gap against the two bridges flanking it at removal time,
and the thickness is the worst bridge/gap ratio.  For the middle-thirds
Cantor construction every bridge equals its gap, giving exactly 1.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dos import _loglog_fit, ids
from .jacobi import JacobiParams, decoupled_block_spectrum
from .spectrum import (BandSet, _band_pairs, floquet_bands, gaps_with_labels, hausdorff_distance,
                       restrict_bands)
from .substitution import FIBONACCI, fixed_point_prefix


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    stderr: float
    scale_min: float
    scale_max: float
    n_scales: int
    method: str = "box-counting"


@dataclass(frozen=True)
class ThicknessEstimate:
    value: float
    level: int = -1


def _count_boxes(edges, eps):
    """box_count of (n, 2) band edges at one scale, over all edges at once."""
    j0 = np.floor(edges[:, 0] / eps)
    j1 = np.floor(edges[:, 1] / eps)
    j1 -= (edges[:, 1] == j1 * eps) & (j1 > j0)  # right endpoint on a box boundary
    j0, j1 = j0.astype(np.int64), j1.astype(np.int64)
    # boxes up to the running max of earlier right indices are counted already
    j0[1:] = np.maximum(j0[1:], np.maximum.accumulate(j1)[:-1] + 1)
    return int(np.maximum(j1 - j0 + 1, 0).sum())


def box_count(bands, eps):
    """Exact number of eps-boxes [j eps, (j+1) eps) meeting the band union.

    ``eps`` is one scale (an int is returned) or an array of scales (an
    integer array of the same shape).  Box indices are int64, so every
    |edge| / eps must stay below 2**63.
    """
    edges = np.asarray(_band_pairs(bands), dtype=float).reshape(-1, 2)
    e = np.asarray(eps, dtype=float)
    # one scale at a time keeps every temporary the size of the band set
    counts = np.array([_count_boxes(edges, x) for x in e.ravel().tolist()], dtype=np.int64)
    return int(counts[0]) if e.ndim == 0 else counts.reshape(e.shape)


def box_dimension(bands, scales=None):
    """Box-counting dimension estimate of a band union.

    With explicit ``scales``, values outside the validity window are
    rejected.  The default ladder halves from hull/4 down to the
    validity floor (at least five scales).
    """
    band_list = _band_pairs(bands)
    if not band_list:
        raise ValueError("empty band set")
    hull = band_list[-1][1] - band_list[0][0]
    if hull <= 0:
        raise ValueError("degenerate hull")
    smallest = min(b - a for a, b in band_list)
    edge_tol = getattr(bands, "edge_tol", 0.0)
    if len(band_list) == 1:
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
    counts = box_count(band_list, eps).astype(float)
    if default_ladder and len(band_list) > 1:
        # fit the resolved mid-regime: enough boxes to see structure, but
        # not so many that the finite-level approximation is exhausted
        mask = (counts >= 12) & (counts <= 0.7 * len(band_list))
        if mask.sum() >= 5:
            eps, counts = eps[mask], counts[mask]
    slope, stderr = _loglog_fit(np.log(1.0 / eps), np.log(counts))
    value = min(max(slope, 0.0), 1.0)
    return DimensionEstimate(value, stderr, float(eps[0]), float(eps[-1]), int(eps.size))


def thickness(bands):
    """Newhouse thickness with gaps ordered by decreasing length."""
    band_list = _band_pairs(bands)
    if not band_list:
        raise ValueError("empty band set")
    level = getattr(bands, "level", -1)
    gaps = [(b1, a2) for (_, b1), (a2, _) in zip(band_list, band_list[1:])]
    if not gaps:
        return ThicknessEstimate(math.inf, level)
    hull_lo, hull_hi = band_list[0][0], band_list[-1][1]
    gaps.sort(key=lambda g: (g[1] - g[0]), reverse=True)
    cuts = [hull_lo, hull_hi]
    tau = math.inf
    for lo, hi in gaps:
        width = hi - lo
        i = bisect.bisect_right(cuts, lo)
        left_bridge = lo - cuts[i - 1]
        j = bisect.bisect_left(cuts, hi)
        right_bridge = cuts[j] - hi
        if width > 0:
            tau = min(tau, left_bridge / width, right_bridge / width)
        else:
            # zero-width gap between numerically touching bands: ignore
            continue
        bisect.insort(cuts, lo)
        bisect.insort(cuts, hi)
    return ThicknessEstimate(float(tau), level)


def local_dimension_profile(s, params, k, window_count, bands=None, **floquet_kw):
    """Windowed box dimensions across the spectrum hull.

    Splits the hull into window_count equal windows and estimates the
    dimension of bands intersected with each; windows meeting fewer
    than two bands yield None estimates.
    """
    if window_count < 1:
        raise ValueError("need window_count >= 1")
    if bands is None:
        bands = floquet_bands(s, params, k, **floquet_kw)
    lo, hi = bands.hull()
    width = (hi - lo) / window_count
    out = []
    for i in range(window_count):
        w_lo, w_hi = lo + i * width, lo + (i + 1) * width
        chunk = restrict_bands(bands.bands, w_lo, w_hi)
        center = 0.5 * (w_lo + w_hi)
        if len(chunk) < 2 and window_count > 1:
            out.append((center, None))
            continue
        est = box_dimension(BandSet(chunk, edge_tol=bands.edge_tol))
        out.append((center, est))
    return out


def large_coupling_check(V_list, k=12, s=FIBONACCI, **floquet_kw):
    """Fibonacci Schrodinger dimensions against the log(1+sqrt2)/log V asymptote."""
    # strong coupling packs bands below the default relative tolerances
    floquet_kw.setdefault("tol", 3e-14)
    floquet_kw.setdefault("merge_tol", 2e-13)
    rows = []
    for V in V_list:
        if V == 0:
            continue  # free case, dimension 1; asymptote meaningless
        params = JacobiParams(1.0, float(V))
        bands = floquet_bands(s, params, k, **floquet_kw)
        est = box_dimension(bands)
        rows.append({
            "V": float(V),
            "dim": est.value,
            "stderr": est.stderr,
            "asymptote": math.log(1.0 + math.sqrt(2.0)) / math.log(V),
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


def gap_opening_rate(s, path, t_list, label_m, k=10, L=1597, m_max=34, tol=None,
                     **floquet_kw):
    """Track one labeled gap along a parameter path toward (1, 0).

    ``path`` maps t to (p, q); the gap is identified at every t by its
    IDS label (band order is not stable under perturbation, labels
    are).  Ratios |gap| / ||(p,q) - (1,0)|| are reported together with
    the relative spread over the last three t values (<= 10% counts as
    stable).
    """
    from .rotation import rotation_number

    alpha = rotation_number(s).alpha
    t_values = sorted((float(t) for t in t_list), reverse=True)
    widths, ratios = [], []
    for t in t_values:
        if t == 0:
            raise ValueError("t = 0 is the unperturbed point; rate undefined")
        p, q = path(t)
        params = JacobiParams(float(p), float(q))
        bands = floquet_bands(s, params, k, **floquet_kw)
        lo, hi = bands.hull()
        pad = 0.05 * (hi - lo)
        # labels read the IDS at gap midpoints only
        mids = [0.5 * (g[0] + g[1]) for g in bands.gaps()]
        table = ids(s, params, L, np.unique([lo - pad, hi + pad] + mids))
        gap_tol = tol if tol is not None else 2.0 / L
        labeled = gaps_with_labels(bands, table, alpha, m_max=m_max, tol=gap_tol)
        match = [g for g in labeled if g.label_m is not None and abs(g.label_m) == abs(label_m)]
        if not match:
            raise RuntimeError("no gap with label |m| = %d at t = %g" % (abs(label_m), t))
        gap = max(match, key=lambda g: g.width)
        dist = math.hypot(p - 1.0, q)
        widths.append(gap.width)
        ratios.append(gap.width / dist)
    last = np.array(ratios[-3:]) if len(ratios) >= 3 else np.array(ratios)
    spread = float((last.max() - last.min()) / abs(np.mean(last)))
    return GapRateResult(tuple(t_values), tuple(widths), tuple(ratios),
                         float(np.mean(last)), spread, spread <= 0.10)


def p_to_zero_scan(s, q_fixed, p_list, k=8, prefix_len=2048, **floquet_kw):
    """Dimension/measure trend as p -> 0, against the decoupled reference set.

    The p = 0 reference is the finite eigenvalue set of the decoupled
    blocks (runs of letter 1 cut the chain); the Hausdorff distance of
    each band set to that reference tracks the norm collapse.
    """
    word = fixed_point_prefix(s, prefix_len)
    reference = decoupled_block_spectrum(word, q_fixed)
    ref_bands = tuple((float(v), float(v)) for v in reference)
    rows = []
    for p in sorted((float(p) for p in p_list), reverse=True):
        params = JacobiParams(p, float(q_fixed))
        bands = floquet_bands(s, params, k, **floquet_kw)
        est = box_dimension(bands)
        rows.append({
            "p": p,
            "dim": est.value,
            "stderr": est.stderr,
            "measure": bands.measure(),
            "hull": bands.hull(),
            "dist_to_reference": hausdorff_distance(bands.bands, ref_bands),
        })
    return {"reference": tuple(float(v) for v in reference), "rows": rows}
