"""Jacobi operator data: transfer matrices, initial conditions, truncations.

The operator acts on square-summable sequences by

    (H phi)_n = p(w_{n+1}) phi_{n+1} + p(w_n) phi_{n-1} + q(w_n) phi_n

with hopping p(0) = 1, p(1) = pp != 0 and potential q(0) = 0, q(1) = qq.
The unimodular one-site transfer matrix (T-form) is

    T_n(E) = (1 / p_{n+1}) [[E - q_n, -1], [p_{n+1}^2, 0]]

and the ordered product over a period word, with the successor letter
taken cyclically at the boundary, is the brute-force oracle against
which the trace-map pipeline is checked.  The curve of initial
conditions l(E) collects the first three half-traces; its Fricke-Vogt
invariant is an affine function of E.

Dirichlet eigenvalue counts come from the Sturm pivot recursion, one
step per site, or, for words spelled by substitution blocks, from the
composed lifts of the per-site pivot maps (see "lifted pivot maps").
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JacobiParams:
    """Finite hopping p != 0 and potential q attached to letter 1 (letter 0 is free)."""

    p: float
    q: float

    def __post_init__(self):
        if not np.isfinite((self.p, self.q)).all():
            raise ValueError("p and q must be finite: p=%r, q=%r" % (self.p, self.q))
        if self.p == 0:
            raise ValueError("hopping value p must be nonzero")

    def hopping(self, letter):
        return self.p if letter in (1, "1") else 1.0

    def potential(self, letter):
        return self.q if letter in (1, "1") else 0.0


def transfer_unimodular(params, letter_n, letter_np1, E):
    """T-form transfer matrix at a site: (1/p') [[E - q, -1], [p'^2, 0]]."""
    pn1 = params.hopping(letter_np1)
    qn = params.potential(letter_n)
    return np.array([[(E - qn) / pn1, -1.0 / pn1], [pn1, 0.0]])


def m_form_transfer(params, letter_n, letter_np1, E):
    """M-form (non-unimodular) one-site matrix; used as a solution-recursion oracle."""
    pn = params.hopping(letter_n)
    pn1 = params.hopping(letter_np1)
    qn = params.potential(letter_n)
    return np.array([[(E - qn) / pn1, -pn / pn1], [1.0, 0.0]])


def word_transfer(params, word, E):
    """Ordered transfer product over a word, successor letter cyclic.

    Sites are numbered along the word; the product is taken site L down
    to site 1 (right-to-left), matching solution propagation.

    In double precision this is an oracle only at moderate hopping: the
    1/p entries make the partial products huge at small p, and the
    half-trace is lost to cancellation.  For 0->0001;1->0 at p = 0.065,
    q = 2.46, level 4, its half-trace is off by up to 12.4 at band
    midpoints; check small p against a 60-digit mpmath product instead.
    """
    if not word:
        raise ValueError("word_transfer needs a nonempty word")
    m = np.eye(2)
    L = len(word)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(L):
            t = transfer_unimodular(params, word[i], word[(i + 1) % L], E)
            m = t @ m
    if not np.isfinite(m).all():
        raise OverflowError("transfer product overflowed (length %d)" % L)
    return m


def half_trace(matrix):
    return 0.5 * (matrix[0, 0] + matrix[1, 1])


def initial_conditions_grid(params, E):
    """The curve of initial conditions l(E) in half-trace coordinates.

    l(E) = ((E^2 - qE - p^2 - 1)/(2p), (E - q)/(2p), E/2); the three
    entries are the half-traces of the words 01, 1 and 0.  E may be a
    number or an array of energies; the result is three aligned values.
    """
    E = np.asarray(E, dtype=float)
    p, q = params.p, params.q
    return (
        (E * E - q * E - p * p - 1.0) / (2.0 * p),
        (E - q) / (2.0 * p),
        E / 2.0,
    )


def initial_invariant(params, E):
    """Closed form of the Fricke-Vogt invariant along l(E) (affine in E)."""
    p, q = params.p, params.q
    return (q * (p * p - 1.0) * E + q * q + (p * p - 1.0) ** 2) / (4.0 * p * p)


def invariant_slope(params):
    """dI(l(E))/dE = q (p^2 - 1) / (4 p^2); zero iff Schrodinger or off-diagonal."""
    p, q = params.p, params.q
    return q * (p * p - 1.0) / (4.0 * p * p)


# -- finite Dirichlet restrictions ----------------------------------------------

@dataclass(frozen=True)
class TridiagonalSpec:
    """Symmetric tridiagonal restriction: diag[i] = q(w_i), offdiag[i] = p(w_i).

    offdiag[i] couples sites i-1 and i.  Index 0 is the dangling boundary
    bond, which the Dirichlet matrix does not use: it keeps offdiag
    aligned with diag letter by letter, and every consumer (the Sturm
    loop, :meth:`dense`, the ``dsterf`` seeds, the benchmark's checks)
    reads offdiag[1:].  Zero off-diagonal entries are legal and split
    the chain into blocks.  Both are kept as tuples of floats copied from
    the caller's data.
    """

    diag: tuple
    offdiag: tuple

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(map(float, self.diag)))
        object.__setattr__(self, "offdiag", tuple(map(float, self.offdiag)))
        if len(self.diag) == 0:
            raise ValueError("empty word")
        if len(self.diag) != len(self.offdiag):
            raise ValueError("diag and offdiag must align")

    @property
    def length(self):
        return len(self.diag)

    def dense(self):
        """Dense matrix, for small-L test oracles."""
        L = self.length
        m = np.diag(np.array(self.diag, dtype=float))
        for i in range(1, L):
            m[i - 1, i] = m[i, i - 1] = self.offdiag[i]
        return m


def dirichlet_restriction(params, word):
    """Dirichlet truncation of the operator to the sites of a finite word."""
    if not word:
        raise ValueError("empty word")
    diag = tuple(params.potential(c) for c in word)
    off = tuple(params.hopping(c) for c in word)
    return TridiagonalSpec(diag, off)


def eigen_count_below(spec, E):
    """Number of Dirichlet eigenvalues <= E (exact integer, Sturm/LDL^T count)."""
    return int(eigen_count_below_grid(spec, np.array([E]))[0])


def eigen_count_below_grid(spec, E):
    """Vectorized Sturm counts over an energy grid.

    Shifted LDL^T pivots of (A - E); negative pivots count eigenvalues
    below E, with zero and NaN pivots set to -1e-300 so exact hits land
    on the "<=" side.  An exact zero pivot inside the chain can still put
    an exact hit on the "<" side (``0->100;1->10``, L = 100, p = q = 1:
    E = -1 counts 26, not 27).  A zero off-diagonal restarts the
    recursion (block splitting), so degenerate p = 0 chains are handled
    exactly.  The site loop works in place on buffers allocated once, so
    a step costs a fixed handful of ufunc calls whatever the number of
    energies: batch energies into one call rather than making many small
    ones.
    """
    E = np.asarray(E, dtype=float)
    d = np.empty(E.shape)
    quot = np.empty(E.shape)
    pos = np.empty(E.shape, dtype=bool)
    bad = np.empty(E.shape, dtype=bool)
    positive = np.zeros(E.shape, dtype=np.int64)
    tiny = 1e-300
    # Python floats step faster than NumPy scalars; site 0 has no left bond
    diag = [float(a) for a in spec.diag]
    bonds = [0.0] + [float(b) * float(b) for b in spec.offdiag[1:]]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b2 in zip(diag, bonds):
            if b2 == 0.0:
                np.subtract(a, E, out=d)
            else:
                np.divide(b2, d, out=quot)
                np.subtract(a, E, out=d)
                np.subtract(d, quot, out=d)
            np.greater(d, 0.0, out=pos)
            np.less(d, 0.0, out=bad)
            np.add(positive, pos, out=positive)
            np.equal(pos, bad, out=bad)  # neither sign: zero or NaN
            np.copyto(d, -tiny, where=bad)
    # every pivot that is not positive is negative or was set to -tiny
    return np.subtract(len(diag), positive, out=positive)


# -- lifted pivot maps ----------------------------------------------------------
#
# Site i's Sturm pivot map d -> (a_i - E) - b_i^2 / d is the Moebius map
# of F = [[a_i - E, -b_i^2], [1, 0]] acting on d = x / y.  F preserves
# orientation and maps the angles ((m - 1/2) pi, (m + 1/2) pi] of (x, y)
# onto (m pi, (m + 1) pi].  With theta_n the lifted angle of the pivot
# vector after n sites, started at d = +inf (theta_0 = 0), site n sends
# theta_(n-1) in ((m - 1/2) pi, (m + 1/2) pi] to theta_n in
# (m pi, (m + 1) pi], and floor(theta_n / pi + 1/2) grows by one exactly
# at each pivot <= 0.  So floor(theta_n / pi) = floor(theta_(n-1) / pi + 1/2)
# counts the first n - 1 sites, whatever site n is.  That is the one
# readout: L sites are counted by floor(theta / pi) after L + 1.  The lift
# of a period word w counts the window w[:-1], and a prefix of L letters
# is counted by the lift of L + 1.  A word's lift is kept as a block
# (k, t1, x, t2), the map
#
#     theta -> k pi + t1 + S_x(t2 + theta),
#
# the lift of R(t1) diag(e^x, e^-x) R(t2) (R a rotation, x >= 0) whose
# stretch S_x fixes the multiples of pi/2.  These angles and the
# log-stretch x stay accurate however long and contracting the word is.
# A normalized F-product does not: once its singular values part by more
# than 1/eps it has lost the contracted direction, and the counts it
# composes go wrong near the eigenvalue clusters of strong coupling.
#
# k is a whole number held as a float64.  t1 and t2 are not reduced: a
# compose adds its new angles to A's t1 and B's t2 as they are (they stay
# within a few pi at the deepest levels solved).  Only the angles turned
# into a tan are reduced by whole half-turns into [-pi/2, pi/2), where
# cos > 0: a compose's middle angle r = t2A + t1B, and a count's t2.
# There S_x is an arctan of tan t, and a compose needs only T = tan r,
# no sine or cosine.  numpy runs tan and arctan as SIMD loops but sin and
# cos of float64 element by element in libm, and the compose is the inner
# loop of every lifted count.

_HALF_PI = 0.5 * np.pi
_LOG_2 = np.log(2.0)


def _wrap(t, k):
    """Angles in [-3pi/2, 3pi/2) reduced into [-pi/2, pi/2), the half-turns moved to k.

    Works in place: t and k must be arrays the caller owns.
    """
    # the half-turns as int8 (bool views): -1, 0 or 1, the same t and k
    m = (t >= _HALF_PI).view(np.int8) - (t < -_HALF_PI).view(np.int8)
    t -= np.pi * m
    k += m
    return t, k


def _reduce(t, k):
    """Angles t reduced into [-pi/2, pi/2) by whole half-turns, added to the float k.

    floor(t / pi + 1/2) takes the half-turns; its rounding can leave an
    angle a step outside, at pi/2 itself for one, and :func:`_wrap`'s
    exact comparisons move it in.  Works in place, like :func:`_wrap`.
    """
    m = t / np.pi
    m += 0.5
    np.floor(m, out=m)
    k += m
    m *= np.pi
    t -= m
    return _wrap(t, k)


def _stretch(x, t):
    """S_x(t): lift of diag(e^x, e^-x) at angles t in [-pi/2, pi/2).

    That is atan2(sin t e^-2x, cos t), written as arctan(tan t e^-2x):
    cos t > 0 on the whole range (the double nearest pi/2 lies below
    pi/2), so both forms give the same angle in (-pi/2, pi/2) up to
    rounding.
    """
    return np.arctan(np.tan(t) * np.exp(-2.0 * x))


def _lift_site(a, b, E):
    """Block of one site, potential a and hopping b > 0: the Cartan form of F / b."""
    # F / b = [[e + f, g - h], [g + h, e - f]] with f = e; then
    # alpha + beta = atan2(h, e), alpha - beta = atan2(g, f)
    e = (a - E) / (2.0 * b)
    h, g = 0.5 * (1.0 / b + b), 0.5 * (1.0 / b - b)
    plus, minus = np.arctan2(h, e), np.arctan2(g, e)
    x = np.log(np.hypot(e, h) + np.hypot(e, g))
    t1, k = _wrap(0.5 * (plus + minus), np.zeros(E.shape))
    t2, k = _wrap(0.5 * (plus - minus), k)
    # fix the half-turns: the lift of F sends 0 to arg(a - E, 1) in (0, pi)
    off = np.arctan2(1.0, a - E) - (np.pi * k + t1 + _stretch(x, t2))
    return k + np.rint(off / np.pi), t1, x, t2


def _lift_compose(A, B):
    """Block of the word read as B then A.

    The middle factor S_xA R(r) S_xB (r = t2A + t1B, reduced into
    [-pi/2, pi/2)) is decomposed again as R(alpha) S_x R(beta) by the
    closed-form 2x2 singular value decomposition, with u = xA + xB and
    v = xB - xA:
    alpha + beta = arctan(T cosh v / cosh u),
    alpha - beta = arctan(T sinh v / sinh u) (0 at u = 0) and
    x = u - log 2 + log(((2 + eu) sqrt(1 + P^2) - eu sqrt(1 + S^2)) / sqrt(1 + T^2)),
    where T = tan r, P and S are the two arctan arguments and
    eu = expm1(-2u).  Both ratios are built from expm1(-2u), expm1(-2|v|)
    and exp(|v| - u) <= 1, so nothing overflows, and the sum inside the
    log has no cancellation (eu <= 0).  The angles are continuous in r and
    vanish at r = 0, which keeps the lift.
    """
    kA, t1A, xA, t2A = A
    kB, t1B, xB, t2B = B
    # Each step reuses a buffer whose value is no longer needed.
    T, k = _reduce(t2A + t1B, kA + kB)
    np.tan(T, out=T)                              # |T| < 2e16: T T is finite
    u = xA + xB
    v = xB - xA
    ev = np.abs(v)
    P = ev - u
    np.exp(P, out=P)                              # e^{|v| - u} <= 1
    ev *= -2.0
    np.expm1(ev, out=ev)                          # e^{-2|v|} - 1, in [eu, 0]
    eu = np.expm1(u * -2.0)                       # e^{-2u} - 1 <= 0
    S = ev / np.minimum(eu, -1e-300)              # 0 at u = 0, where ev = 0 too
    S *= P
    np.copysign(S, v, out=S)
    S *= T                                        # T sinh v / sinh u
    ev += 2.0                                     # 1 + e^{-2|v|}
    P *= ev
    P *= T
    cu = eu + 2.0                                 # 1 + e^{-2u}
    P /= cu                                       # T cosh v / cosh u
    plus, minus = np.arctan(P), np.arctan(S)
    P *= P
    P += 1.0
    np.sqrt(P, out=P)
    P *= cu                                       # (2 + eu) sqrt(1 + P P)
    S *= S
    S += 1.0
    np.sqrt(S, out=S)
    S *= eu
    P -= S                                        # - eu sqrt(1 + S S)
    T *= T
    T += 1.0
    np.sqrt(T, out=T)
    P /= T
    x = np.log(P, out=P)
    x += u
    x -= _LOG_2
    t1 = plus + minus
    t1 *= 0.5
    t1 += t1A                                     # t1A + (plus + minus) / 2
    t2 = np.subtract(plus, minus, out=plus)
    t2 *= 0.5
    t2 += t2B                                     # (plus - minus) / 2 + t2B
    return k, t1, x, t2


# a lifted angle this close below a count boundary counts as an exact hit
_TIE_ANGLE = 1e-12


def _block_count_below(params, sp, blocks, L, E):
    """Dirichlet eigenvalues <= E of the first L sites of the word spelled by lifted blocks.

    blocks holds pairs (j, c) in reading order, the words sp^j(c) of
    substitution.py's _prefix_blocks; levels never increase along it.
    They spell L + 1 letters, and the count is floor(theta / pi) of
    their lift (see "lifted pivot maps"): the last letter is read but
    not counted, so any letter will do there.  The band search passes
    the period [(k, star)] with L = q - 1, and the DOS its prefix plan
    with one level-0 block appended.  The lift is composed from the
    blocks sp^j(0) and sp^j(1), lowest level first, so only one level of
    blocks and the accumulated tail are alive at a time and the cost is
    O(levels * |sp|) per energy, whatever the word length.  Counts agree
    with :func:`eigen_count_below_grid`: a last pivot of 0 counts (the
    "<=" side; so does a lifted angle within _TIE_ANGLE of the boundary,
    to absorb the rounding of exact hits), no count exceeds L, E = -inf
    counts 0, and E = +inf or NaN counts every site.
    """
    E = np.asarray(E, dtype=float)
    return _finite_count(_lift_count(_blocks_lift(params, sp, blocks, E)), L, E)


def _blocks_lift(params, sp, blocks, E):
    """Lift of the word spelled by blocks, at E scaled by the largest hopping.

    Non-finite energies are lifted at 0; :func:`_finite_count` sets their counts.
    """
    # Counts do not change when H and E are divided by the largest hopping.
    # A site with hopping b > 1 keeps its dependence on E only in an angle
    # offset of order 1/b^2, which double precision loses once b^2 nears
    # 1/eps; scaled, every b is at most 1.  The energies that _TIE_ANGLE
    # moves onto the "<=" side then lie within a few times 1e-13 * scale
    # of an eigenvalue, a window that grows with |p| (see dos.ids_counter).
    scale = max(abs(params.hopping(c)) for c in "01")
    e = np.where(np.isfinite(E), E, 0.0) / scale
    level_blocks = {c: _lift_site(params.potential(c) / scale, abs(params.hopping(c)) / scale, e)
                    for c in "01"}
    level, tail = 0, None
    for j, c in reversed(blocks):
        while level < j:
            level_blocks = {x: _chain(level_blocks, sp.image(x)) for x in "01"}
            level += 1
        # each block precedes the tail already composed
        tail = level_blocks[c] if tail is None else _lift_compose(tail, level_blocks[c])
    return tail


def _finite_count(count, L, E):
    """count clamped to L, with E = -inf set to 0 and E = +inf or NaN to every one of the L sites.

    The clamp takes back the one site that _TIE_ANGLE adds at E of about
    1e12 max(1, |p|) and above, where every pivot is <= 0 and the angle
    after the uncounted last site lies within it below (L + 1) pi.
    """
    finite = np.isfinite(E)
    count[~finite] = np.where(E[~finite] < 0.0, 0, L)
    count[count > L] = L
    return count


def _lift_count(block):
    """floor(theta / pi) of a block entered at d = +inf (theta rounded up by _TIE_ANGLE).

    This counts the pivots <= 0 along all the block's sites but the last.
    """
    k, t1, x, t2 = block
    t2, k = _reduce(t2.copy(), k.copy())
    phi = t1 + _stretch(x, t2) + _TIE_ANGLE
    return (k + np.floor(phi / np.pi)).astype(np.int64)


def _chain(level_blocks, word):
    """Block of a word from the blocks of its letters, first letter first."""
    out = level_blocks[word[0]]
    for x in word[1:]:
        out = _lift_compose(level_blocks[x], out)
    return out


def decoupled_block_spectrum(word, q):
    """Eigenvalues of the p = 0 decoupling of the chain along a word.

    With zero hopping on letter-1 bonds the line splits at every
    1-site into finite blocks "1 0^j"; the spectrum is the union of the
    block eigenvalues over the distinct patterns occurring in the word
    (the leading partial block of a finite sample is dropped).
    """
    cuts = [i for i, c in enumerate(word) if c == "1"]
    if not cuts:
        return np.array([0.0])  # free letter-0 sites only
    patterns = set()
    for a, b in zip(cuts, cuts[1:]):
        patterns.add(word[a:b])
    if not patterns:  # single cut: the one complete-looking trailing block
        patterns.add(word[cuts[-1]:])
    values = set()
    params_like_diag = {"0": 0.0, "1": float(q)}
    for pat in patterns:
        L = len(pat)
        m = np.diag([params_like_diag[c] for c in pat])
        for i in range(1, L):
            m[i - 1, i] = m[i, i - 1] = 1.0  # interior bonds are letter-0 bonds
        values.update(np.linalg.eigvalsh(m).tolist())
    return np.array(sorted(values))
