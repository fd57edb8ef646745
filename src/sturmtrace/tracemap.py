"""Trace maps of primitive invertible two-letter substitutions.

Points (x, y, z) are triples of half-traces of SL(2) transfer-matrix
words.  The elementary polynomial maps

    U(x, y, z) = (2xz - y, x, z)        P(x, y, z) = (x, z, y)

act on triples of the form (x(AB), x(A), x(B)) as the word moves
(A, B) -> (AB, B) and (A, B) -> (B, A), where x(W) is the half-trace of
the matrix word W.  The composite t_a = U^a o P is the building block:
a substitution whose transposed abelianization factors as
M_{a_1} ... M_{a_n}, with M_a = [[a, 1], [1, 0]], has the periodic
trace-map block t_{a_n} o ... o t_{a_1}.  One block application advances
the orbit by one substitution level, so the y coordinate after k blocks
is the half-trace of the transfer matrix over s^k(star).  A
:class:`TraceMapRecipe` holds that block and the start; k levels apply
the block k times from the curve of initial conditions.

Every map here preserves the Fricke-Vogt invariant

    I(x, y, z) = x^2 + y^2 + z^2 - 2xyz - 1

and hence the surfaces S_V = {I = V}.  Bounded orbits characterize the
spectrum; orbits that leave the unit-cube region escape to infinity in
all three coordinates, which is the basis of the escape classifier.

Every orbit is computed by one array kernel, ``_iterate``, which applies
a sequence of t_a factors to aligned (x, y, z) arrays.  Each U-step is
computed into one fresh array, with the rest of its arithmetic (and the
optional clip) done in place on that array.  The float operations are
those of the scalar maps below, in the same order, so every lane is
bit-identical to the scalar orbit, and the input arrays are never
written.  Its callers are ``spectrum.half_trace_grid`` (which clips each
U-step to +-SATURATION), :func:`classify_batch` (which holds the escape
test), and the one-point :func:`apply_period`, :func:`step` and
:func:`classify`, which run it on one-element arrays.  The scalar maps
are the definitions, and the tests check the kernel against them.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

ESCAPE_NORM_DEFAULT = 1e3
MAX_STEPS_BANDS = 60
MAX_STEPS_POINT = 200


def fricke_vogt(point):
    x, y, z = point
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def u_map(point):
    x, y, z = point
    return (2.0 * x * z - y, x, z)


def u_inverse(point):
    x, y, z = point
    return (y, 2.0 * y * z - x, z)


def p_swap(point):
    x, y, z = point
    return (x, z, y)


def t_factor(a, point):
    """t_a = U^a o P (P applied first)."""
    point = p_swap(point)
    for _ in range(a):
        point = u_map(point)
    return point


def t_factor_inverse(a, point):
    for _ in range(a):
        point = u_inverse(point)
    return p_swap(point)


def fibonacci_map(point):
    """f(x,y,z) = (2xy - z, x, y); identical to t_1."""
    x, y, z = point
    return (2.0 * x * y - z, x, y)


def fibonacci_map_inverse(point):
    # Note: (y, z, 2yz - x).  The form (z, y, 2yz - x) sometimes quoted
    # composes with f to the swap P, not to the identity.
    x, y, z = point
    return (y, z, 2.0 * y * z - x)


# -- recipes -------------------------------------------------------------------

@dataclass(frozen=True)
class TraceMapRecipe:
    """Composition recipe: the periodic block t_{a_n} o ... o t_{a_1}.

    ``swapped_start`` records which of the two letters the first word of
    the standard pair tracks: True means the orbit starts from the
    y<->z swap of the curve of initial conditions (pair (0,1), the
    common case), False means the curve itself (pair (1,0)).  It fixes
    :attr:`star`, the letter whose iterated images the block advances.
    """

    period: tuple = (1,)
    swapped_start: bool = True

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in self.period):
            raise ValueError("all factors must be >= 1")

    @property
    def star(self):
        return "0" if self.swapped_start else "1"

    def text(self):
        """Compact form; the start is written only when it is pair (1,0)."""
        body = "period=[%s]" % ",".join(str(a) for a in self.period)
        if not self.swapped_start:
            body += ";start=pair10"
        return body


def recipe_from_substitution(s):
    """Periodic trace-map block of a primitive invertible substitution.

    One block advances one substitution level.  Raises SubstitutionError
    for s not primitive and invertible, or whose abelianization does
    not factor (``Substitution._trace_block``).
    """
    star, factors = s._trace_block
    return TraceMapRecipe(period=factors, swapped_start=star == "0")


# -- orbit iteration -----------------------------------------------------------

def _iterate(factors, x, y, z, bound=None):
    """The trace-map kernel: apply t_a for each a of ``factors``, in order.

    (x, y, z) are aligned arrays and the image triple is returned.  Each
    U-step makes one fresh array t = 2x, then forms t*z - y in place on
    it: the same float operations, in the same order, as ``2.0 * x * z -
    y`` in :func:`u_map`, so each lane is bit-identical to the scalar
    orbit.  With ``bound``, t is then clipped to [-bound, bound], also in
    place, which needs the lanes to be arrays of at least one dimension.
    Only the fresh arrays are written, never the inputs, so a caller may
    keep them (and pass the same array as y and z).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for a in factors:
            y, z = z, y
            for _ in range(a):
                t = x * 2.0
                t *= z
                t -= y
                if bound is not None:
                    np.minimum(t, bound, out=t)
                    np.maximum(t, -bound, out=t)
                x, y = t, x
    return x, y, z


def _lanes(point):
    return tuple(np.array([c], dtype=float) for c in point)


def apply_period(recipe, point):
    """One application of the periodic block (the raw map, no readout)."""
    return tuple(float(c[0]) for c in _iterate(recipe.period, *_lanes(point)))


def apply_period_inverse(recipe, point):
    for a in reversed(recipe.period):
        point = t_factor_inverse(a, point)
    return point


def step(recipe, point, n):
    """Orbit point after n periodic blocks.

    The returned triple is arranged so that its x coordinate is the
    half-trace of the transfer matrix over s^n(star) when ``point`` is
    the curve of initial conditions; n = 0 returns the point unchanged.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return tuple(float(c) for c in point)
    x, y, z = _lanes(point)
    if recipe.swapped_start:
        y, z = z, y
    x, y, z = (float(c[0]) for c in _iterate(recipe.period * n, x, y, z))
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise OverflowError("trace-map orbit overflowed at block %d" % n)
    return (y, x, z)


@dataclass(frozen=True)
class OrbitVerdict:
    kind: str  # "bounded-so-far" | "escaped"
    steps_used: int
    last_point: tuple
    max_norm: float


def classify_batch(recipe, xs, ys, zs, max_steps=MAX_STEPS_BANDS,
                   escape_norm=ESCAPE_NORM_DEFAULT):
    """Escape/bounded dichotomy of every lane after at most max_steps blocks.

    Escape requires all three coordinates outside [-1, 1] (the region
    free of periodic points), max-norm above escape_norm, and a strictly
    increasing max-norm over the last three block applications; float
    overflow counts as escape.

    Returns (escaped_at, last_point, max_norm).  escaped_at is the block
    count of escape, max_steps + 1 for lanes still bounded, so a lane has
    escaped iff escaped_at <= max_steps; last_point is the (3, n) array
    of each lane's last finite point (at escape, or after max_steps
    blocks); max_norm is the max-norm at escape (inf on overflow), or
    the largest along a bounded orbit.

    Only live lanes are iterated: once at least half of the working
    arrays are escaped lanes, they shrink to the live ones, and the loop
    ends when no lane is live.  The escape test itself runs only on the
    live lanes whose max-norm is above escape_norm or not finite.  With no
    lanes it returns at once, without iterating.  Each lane's arithmetic
    is that of a lone lane, so the results are the same lane by lane.
    """
    if max_steps < 1:
        raise ValueError("need max_steps >= 1")
    if escape_norm <= 1.0:
        raise ValueError("need escape_norm > 1")
    x, y, z = (np.array(c, dtype=float).ravel() for c in (xs, ys, zs))
    if recipe.swapped_start:
        y, z = z, y
    n_pts = x.size
    escaped_at = np.full(n_pts, max_steps + 1, dtype=np.int64)
    last = np.empty((3, n_pts))
    max_norm = np.empty(n_pts)
    if n_pts == 0:
        return escaped_at, last, max_norm
    # the working set: lane indices, their triples, peaks and last three norms
    lanes = np.arange(n_pts)
    live = np.ones(n_pts, dtype=bool)
    peak = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
    h1 = h2 = np.zeros(n_pts)
    h3 = peak.copy()
    n_live = n_pts
    for n in range(1, max_steps + 1):
        prev = (x, y, z)
        x, y, z = _iterate(recipe.period, x, y, z)
        norm = np.abs(x)
        np.maximum(norm, np.abs(y), out=norm)
        np.maximum(norm, np.abs(z), out=norm)
        np.maximum(peak, norm, out=peak)
        # an escaping lane has norm above escape_norm or not finite: test only those
        c = np.flatnonzero(live & ~(norm <= escape_norm))
        if c.size:
            nc = norm[c]
            over = ~np.isfinite(nc)   # NaN and inf carry through np.maximum
            hit = over
            if n >= 3:
                h3c, h2c = h3[c], h2[c]
                xc, yc, zc = np.abs(x[c]), np.abs(y[c]), np.abs(z[c])
                hit = over | ((np.minimum(xc, np.minimum(yc, zc)) > 1.0)
                              & (nc > h3c) & (h3c > h2c) & (h2c > h1[c]))
            c, over = c[hit], over[hit]
        if c.size:
            at = lanes[c]
            escaped_at[at] = n
            max_norm[at] = np.where(over, np.inf, norm[c])
            for row, old, new in zip(last, prev, (x, y, z)):
                row[at] = np.where(over, old[c], new[c])
            live[c] = False
            n_live -= c.size
            if n_live == 0:
                break
            if 2 * n_live <= lanes.size:
                keep = np.flatnonzero(live)
                lanes, x, y, z, peak, h2, h3, norm = (
                    a[keep] for a in (lanes, x, y, z, peak, h2, h3, norm))
                live = np.ones(n_live, dtype=bool)
        h1, h2, h3 = h2, h3, norm
    at = lanes[live]
    last[:, at] = np.stack([x, y, z])[:, live]
    max_norm[at] = peak[live]
    return escaped_at, last, max_norm


def _verdicts(escaped_at, last, max_norm, max_steps):
    """OrbitVerdicts of classify_batch lanes, in Python floats."""
    return [OrbitVerdict("escaped" if at <= max_steps else "bounded-so-far",
                         min(at, max_steps), tuple(pt), m)
            for at, pt, m in zip(escaped_at.tolist(), last.T.tolist(), max_norm.tolist())]


def classify(recipe, point, max_steps=MAX_STEPS_POINT, escape_norm=ESCAPE_NORM_DEFAULT):
    """Escape/bounded dichotomy of one point, as in :func:`classify_batch`."""
    at, last, max_norm = classify_batch(recipe, *_lanes(point), max_steps=max_steps,
                                        escape_norm=escape_norm)
    return _verdicts(at, last, max_norm, max_steps)[0]


def surface_section(V, resolution, chart=(-2.0, 2.0, -2.0, 2.0),
                    max_steps=MAX_STEPS_BANDS, escape_norm=ESCAPE_NORM_DEFAULT):
    """Escape-time raster of a chart of the invariant surface S_V.

    The quadric I(x,y,z) = V is solved for z over an (x, y) grid
    (z = xy +- sqrt((x^2-1)(y^2-1) + V)); both sheets are classified
    pixel by pixel under the Fibonacci block t_1.  Pixels with no real root carry step count -1; bounded
    pixels carry max_steps + 1.
    """
    if resolution < 2:
        raise ValueError("need resolution >= 2")
    if not math.isfinite(V):
        raise ValueError("the invariant V must be finite: %r" % (V,))
    recipe = TraceMapRecipe(period=(1,))
    x_lo, x_hi, y_lo, y_hi = chart
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    gx, gy = np.meshgrid(xs, ys)
    disc = (gx * gx - 1.0) * (gy * gy - 1.0) + V
    ok = disc >= 0
    root = np.sqrt(np.where(ok, disc, 0.0))
    steps = np.full((2, resolution, resolution), -1, dtype=np.int64)
    for sheet, sign in enumerate((1.0, -1.0)):
        gz = gx * gy + sign * root
        steps[sheet][ok] = classify_batch(recipe, gx[ok], gy[ok], gz[ok], max_steps=max_steps,
                                          escape_norm=escape_norm)[0]
    if not ok.any():
        warnings.warn("surface chart is empty (no real roots); V < -1 sphere gone?")
    return {"x": xs, "y": ys, "steps": steps, "max_steps": max_steps}
