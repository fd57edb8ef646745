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
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JacobiParams:
    """Hopping and potential values attached to letter 1 (letter 0 is free)."""

    p: float
    q: float

    def __post_init__(self):
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

    offdiag[i] couples sites i-1 and i; index 0 is the dangling boundary
    bond, kept for serialization but unused by the Dirichlet matrix.
    Zero off-diagonal entries are legal and split the chain into blocks.
    """

    diag: tuple
    offdiag: tuple

    def __post_init__(self):
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

    def to_csv_rows(self):
        return [(i, self.diag[i], self.offdiag[i]) for i in range(self.length)]


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
    on the "<=" side.  A zero off-diagonal restarts the recursion (block
    splitting), so degenerate p = 0 chains are handled exactly.  The
    site loop works in place on buffers allocated once, so a step costs
    a fixed handful of ufunc calls whatever the number of energies:
    batch energies into one call rather than making many small ones.
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
