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
# onto (m pi, (m + 1) pi], so along the lifted angle theta of the pivot
# vector, started at d = +inf (theta = 0), floor(theta / pi + 1/2) grows
# by one exactly at each pivot <= 0.  Read one site later, the same map
# counts all sites but the last: with theta_n the angle after n sites,
# site n sends theta_(n-1) in ((m - 1/2) pi, (m + 1/2) pi] to theta_n in
# (m pi, (m + 1) pi], so floor(theta_n / pi) = floor(theta_(n-1) / pi + 1/2)
# is the count of the first n - 1 sites.  The lift of a whole period
# word w thus also counts the window w[:-1].  A word's lift is kept as a block
# (k, t1, x, t2), the map
#
#     theta -> k pi + t1 + S_x(t2 + theta),
#
# the lift of R(t1) diag(e^x, e^-x) R(t2) (R a rotation, k an integer,
# t1 and t2 in [-pi/2, pi/2), x >= 0) whose stretch S_x fixes the
# multiples of pi/2.  These angles and the log-stretch x stay accurate
# however long and contracting the word is.  A normalized F-product
# does not: once its singular values part by more than 1/eps it has lost
# the contracted direction, and the counts it composes go wrong near the
# eigenvalue clusters of strong coupling.

_HALF_PI = 0.5 * np.pi


def _wrap(t, k):
    """Angles in [-3pi/2, 3pi/2) reduced into [-pi/2, pi/2), the half-turns moved to k.

    Works in place: t and k must be arrays the caller owns.
    """
    m = (t >= _HALF_PI).astype(np.int64) - (t < -_HALF_PI)
    t -= np.pi * m
    k += m
    return t, k


def _stretch(x, t):
    """S_x(t): lift of diag(e^x, e^-x) at angles t in [-pi/2, pi/2)."""
    return np.arctan2(np.sin(t) * np.exp(-2.0 * x), np.cos(t))


def _lift_site(a, b, E):
    """Block of one site, potential a and hopping b > 0: the Cartan form of F / b."""
    # F / b = [[e + f, g - h], [g + h, e - f]] with f = e; then
    # alpha + beta = atan2(h, e), alpha - beta = atan2(g, f)
    e = (a - E) / (2.0 * b)
    h, g = 0.5 * (1.0 / b + b), 0.5 * (1.0 / b - b)
    plus, minus = np.arctan2(h, e), np.arctan2(g, e)
    x = np.log(np.hypot(e, h) + np.hypot(e, g))
    t1, k = _wrap(0.5 * (plus + minus), np.zeros(E.shape, dtype=np.int64))
    t2, k = _wrap(0.5 * (plus - minus), k)
    # fix the half-turns: the lift of F sends 0 to arg(a - E, 1) in (0, pi)
    off = np.arctan2(1.0, a - E) - (np.pi * k + t1 + _stretch(x, t2))
    return k + np.rint(off / np.pi).astype(np.int64), t1, x, t2


def _lift_compose(A, B):
    """Block of the word read as B then A.

    The middle factor S_xA R(r) S_xB (r = t2A + t1B) is decomposed
    again as R(alpha) S_x R(beta) by the closed-form 2x2 singular value
    decomposition, written in terms of cosh and sinh of u = xA + xB and
    v = xB - xA, both scaled by 1 / cosh(u) so nothing overflows.  With
    r in [-pi/2, pi/2) the angles are continuous in r and vanish at
    r = 0, which keeps the lift.
    """
    kA, t1A, xA, t2A = A
    kB, t1B, xB, t2B = B
    # Each step reuses a buffer whose value is no longer needed, so about
    # ten energy arrays are alive at once; every value is the same double
    # as in the plain expression noted beside it.
    r, k = _wrap(t2A + t1B, kA + kB)
    c = np.cos(r)
    s = np.sin(r, out=r)
    u = xA + xB
    v = xB - xA
    ratio = np.abs(v)
    w = ratio * -2.0                              # -2 |v|
    eu = np.exp(u * -2.0)                         # e^{-2u}
    ratio -= u
    np.exp(ratio, out=ratio)
    ratio /= 1.0 + eu                             # e^{|v|} / (2 cosh u)
    ch = np.exp(w)
    ch += 1.0
    ch *= s * ratio                               # s cosh v / cosh u
    sh = np.expm1(w, out=w)
    np.negative(sh, out=sh)
    sh *= ratio
    np.copysign(sh, v, out=sh)
    sh *= s                                       # s sinh v / cosh u
    del s, v, ratio
    ct = np.tanh(u)
    ct *= c                                       # c sinh u / cosh u
    plus, minus = np.arctan2(ch, c), np.arctan2(sh, ct)
    # the singular value over cosh(u); no term exceeds 1, so squaring is safe:
    # sigma = sqrt(c c + ch ch) + sqrt(ct ct + sh sh)
    c *= c
    ch *= ch
    c += ch
    sigma = np.sqrt(c, out=c)
    ct *= ct
    sh *= sh
    ct += sh
    sigma += np.sqrt(ct, out=ct)
    del ch, sh, ct
    x = np.log(sigma, out=sigma)                  # log(sigma) + u + log1p(eu) - log 2,
    x += u                                        # that is + log cosh(u)
    x += np.log1p(eu, out=eu)
    x -= np.log(2.0)
    t1 = plus + minus
    t1 *= 0.5
    t1 += t1A                                     # t1A + (plus + minus) / 2
    t2 = np.subtract(plus, minus, out=plus)
    t2 *= 0.5
    t2 += t2B                                     # (plus - minus) / 2 + t2B
    t1, k = _wrap(t1, k)
    t2, k = _wrap(t2, k)
    return k, t1, x, t2


# a lifted angle this close below a count boundary counts as an exact hit
_TIE_ANGLE = 1e-12


def _block_count_below(params, sp, blocks, L, E):
    """Dirichlet eigenvalues <= E of the length-L word spelled by lifted blocks.

    blocks holds pairs (j, c) in reading order, the words sp^j(c) of
    substitution.py's _prefix_blocks; levels never increase along it.
    The count is composed from the blocks sp^j(0) and sp^j(1), lowest
    level first, so only one level of blocks and the accumulated tail
    are alive at a time and the cost is O(levels * |sp|) per energy,
    whatever the word length.  Counts agree with
    :func:`eigen_count_below_grid`: a last pivot of 0 counts (the "<="
    side; so does a lifted angle within _TIE_ANGLE of the boundary, to
    absorb the rounding of exact hits), E = -inf counts 0, and E = +inf
    or NaN counts every site.
    """
    E = np.asarray(E, dtype=float)
    return _finite_count(_lift_count(_blocks_lift(params, sp, blocks, E)), L, E)


def _window_count_below(params, sp, letter, k, L, E):
    """Dirichlet eigenvalues <= E of the window w[:-1], L = |w| - 1 sites, of w = sp^k(letter).

    The count is floor(theta / pi) of the lift of the whole word (see
    "lifted pivot maps"): the blocks of k levels and no tail, where
    spelling the window itself takes a tail of about one block per
    level (8 to 18 at Fibonacci k = 16, metal-mean k = 10 and
    0->100;1->10 k = 9).  Ties, infinities and NaN count as in
    :func:`_block_count_below`.
    """
    E = np.asarray(E, dtype=float)
    return _finite_count(_lift_count(_blocks_lift(params, sp, [(k, letter)], E), 0.0), L, E)


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
    """count with E = -inf set to 0 and E = +inf or NaN to every one of the L sites."""
    finite = np.isfinite(E)
    count[~finite] = np.where(E[~finite] < 0.0, 0, L)
    return count


def _lift_count(block, shift=0.5):
    """floor(theta / pi + shift) of a block entered at d = +inf (theta rounded up by _TIE_ANGLE).

    With shift 1/2 this counts the pivots <= 0 along the block, with
    shift 0 those along all its sites but the last.
    """
    k, t1, x, t2 = block
    phi = t1 + _stretch(x, t2) + _TIE_ANGLE
    return k + np.floor(phi / np.pi + shift).astype(np.int64)


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
