"""Rotation-number realization of substitution sequences.

A primitive invertible two-letter substitution has a fixed point that is
Sturmian, hence realizable by sampling an irrational circle rotation:

    w_n = chi(n*alpha + beta mod 1),   chi the indicator of [1-alpha, 1)

(or of (1-alpha, 1] -- both endpoint conventions are exposed).  The
angle alpha attached to a substitution here is the slope of the Perron
eigenvector of the transposed abelianization; its continued fraction is
eventually periodic and the periodic block is exactly the factor list of
the substitution's trace map.  The continued fraction is extracted with
exact integer arithmetic on quadratic surds (p + q*sqrt(d))/r, so the
eventual periodicity is detected by state repetition, not by floating
point luck.
"""

import math
import os
from dataclasses import dataclass, field

from .substitution import SubstitutionError, fixed_point_prefix


# -- exact quadratic surds ---------------------------------------------------

@dataclass(frozen=True)
class QuadraticSurd:
    """(p + q*sqrt(d)) / r with integer p, q, r and d >= 0 not a square."""

    p: int
    q: int
    d: int
    r: int

    def __post_init__(self):
        if self.r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        p, q, d, r = self.p, self.q, self.d, self.r
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def value(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def reciprocal(self):
        # r / (p + q sqrt(d)) = r (p - q sqrt(d)) / (p^2 - q^2 d)
        den = self.p * self.p - self.q * self.q * self.d
        if den == 0:
            raise ZeroDivisionError("reciprocal of zero surd")
        return QuadraticSurd(self.r * self.p, -self.r * self.q, self.d, den)


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def continued_fraction(surd):
    """CF digits of a surd in (0,1): returns (preperiod, period) tuples.

    With the surd as (P + sqrt D) / Q, Q dividing D - P^2, the complete
    quotients follow P <- a Q - P, Q <- (D - P^2) / Q (first with a = 0,
    the reciprocal), and each digit a = floor((P + sqrt D) / Q) is
    (P + isqrt D) // Q, the numerator rounded up when Q < 0.  All of it
    is integer arithmetic; the period starts at the first repeated
    (P, Q), looked for within 10000 terms.
    """
    sign = 1 if surd.q >= 0 else -1
    P, D, Q = sign * surd.p, surd.q * surd.q * surd.d, sign * surd.r
    if _is_square(D):
        raise ValueError("continued_fraction needs a quadratic irrational")
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    root, seen, digits, a = math.isqrt(D), {}, [], 0
    for i in range(10000):
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) in seen:
            return tuple(digits[:seen[P, Q]]), tuple(digits[seen[P, Q]:])
        seen[P, Q] = i
        a = (P + root + (Q < 0)) // Q
        if a < 1:
            raise ValueError("CF digit < 1; surd not in (0,1)?")
        digits.append(a)
    raise RuntimeError("no CF period found within 10000 terms")


def cf_value(preperiod, period):
    """Float value of [0; preperiod, period, period, ...], cut at 64 digits."""
    digits = list(preperiod)
    while len(digits) < 64:
        digits.extend(period)
    v = 0.0
    for a in reversed(digits[:64]):
        v = 1.0 / (a + v)
    return v


# -- rotation parameters ------------------------------------------------------

@dataclass(frozen=True)
class RotationParams:
    """Rotation angle as an eventually periodic CF, plus a phase beta.

    ``closed_right`` selects the alternative indicator chi((1-alpha, 1]).
    """

    cf_preperiod: tuple
    cf_period: tuple
    beta: float = 0.0
    closed_right: bool = False
    surd: QuadraticSurd | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.cf_period:
            raise ValueError("CF period must be nonempty")
        if any(a < 1 for a in self.cf_preperiod + self.cf_period):
            raise ValueError("CF coefficients must be >= 1")

    @property
    def alpha(self):
        if self.surd is not None:
            return self.surd.value()
        return cf_value(self.cf_preperiod, self.cf_period)


def rotation_sample(params, n_from, n_to):
    """Letters w_n for n in [n_from, n_to], w_n = 1 iff frac(n a + b) in [1-a, 1)."""
    if n_from > n_to:
        raise ValueError("need n_from <= n_to")
    alpha, beta = params.alpha, params.beta
    out = []
    for n in range(n_from, n_to + 1):
        frac = (n * alpha + beta) % 1.0
        if params.closed_right:
            hit = 1.0 - alpha < frac <= 1.0 or frac == 0.0
        else:
            hit = frac >= 1.0 - alpha
        out.append("1" if hit else "0")
    return "".join(out)


def rotation_number(s):
    """Rotation parameters of a primitive invertible substitution.

    alpha is the Perron eigenvector slope of the transposed
    abelianization (the reciprocal slope when letter 1 dominates, so
    that alpha stays in (0,1)); the CF periodic block then matches the
    trace-map factor list.  beta is left 0 -- use :func:`scan_beta` to
    search for a phase reproducing the fixed point.
    """
    if not s.primitive:
        raise SubstitutionError("rotation_number needs a primitive substitution")
    if not s.invertible:
        raise SubstitutionError("rotation_number needs an invertible substitution")
    (a00, a01), (a10, a11) = s.abelianization
    # transposed abelianization T = [[a00, a10], [a01, a11]]; slope t of the
    # Perron eigenvector (1, t) solves T01 t^2 + (T00 - T11) t - T10 = 0; its
    # discriminant tr^2 - 4 det (det = +-1) is a square for no primitive T
    t01, t00, t11, t10 = a10, a00, a11, a01
    disc = (t00 - t11) ** 2 + 4 * t01 * t10
    slope = QuadraticSurd(t11 - t00, 1, disc, 2 * t01)
    # slope > 1 iff sqrt(disc) > m = 2 t01 - (t11 - t00), t01 > 0 (primitive)
    m = 2 * t01 - (t11 - t00)
    if m < 0 or disc > m * m:
        slope = slope.reciprocal()
    pre, per = continued_fraction(slope)
    return RotationParams(cf_preperiod=pre, cf_period=per, surd=slope)


def scan_beta(s, n_letters=50):
    """Search beta over {frac(m alpha)}, |m| <= 30, for agreement with the fixed point.

    Both letter polarities and both endpoint conventions are scanned,
    since the classical realization pins neither the phase nor the
    indicator variant.  Returns the best match as a dict with keys
    beta, swap_letters, closed_right, match_len.
    """
    params = rotation_number(s)
    target = fixed_point_prefix(s, n_letters)
    swapped = target.translate(str.maketrans("01", "10"))
    alpha = params.alpha
    best = {"beta": 0.0, "swap_letters": False, "closed_right": False, "match_len": -1}
    for m in range(-30, 31):
        beta = (m * alpha) % 1.0
        for closed_right in (False, True):
            trial = RotationParams(params.cf_preperiod, params.cf_period,
                                   beta=beta, closed_right=closed_right, surd=params.surd)
            word = rotation_sample(trial, 1, n_letters)
            for swap, ref in ((False, target), (True, swapped)):
                match = len(os.path.commonprefix([word, ref]))
                if match > best["match_len"]:
                    best = {"beta": beta, "swap_letters": swap,
                            "closed_right": closed_right, "match_len": match}
    return best
