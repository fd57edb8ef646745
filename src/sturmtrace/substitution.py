"""Two-letter substitutions: primitivity, invertibility, fixed points.

Words over the alphabet {0, 1} are plain Python strings of '0'/'1'
characters.  A substitution s is given by the two image words s(0) and
s(1) and extends to words by concatenation.  Throughout we care about
two structural properties:

* primitivity -- some power s^k maps every letter to a word containing
  both letters (equivalently, the square of the 2x2 letter-count matrix
  is entrywise positive);
* invertibility -- s extends to an automorphism of the free group on
  two generators (Nielsen: the image of the commutator [0,1] must be
  conjugate to [0,1] or its inverse).

Both checks are exact integer and string tests, linear in the length of
the images.

The text format for substitutions is ``0->01;1->0``.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

WORD_LENGTH_CAP = 2 ** 24


class SubstitutionError(ValueError):
    """Invalid substitution (bad letters, empty image, ...)."""


class UnsupportedSubstitutionError(SubstitutionError):
    """Structurally valid input outside the supported class."""


class ResourceLimitError(RuntimeError):
    """A requested expansion would exceed the configured size cap."""


def _check_word(word):
    if not isinstance(word, str) or any(c not in "01" for c in word):
        raise SubstitutionError("words must be strings over the alphabet {0,1}: %r" % (word,))
    return word


@dataclass(frozen=True)
class Substitution:
    """A substitution on {0,1}, defined by the images of the two letters."""

    image0: str
    image1: str

    def __post_init__(self):
        _check_word(self.image0)
        _check_word(self.image1)

    def image(self, letter):
        return self.image1 if letter in (1, "1") else self.image0

    def apply(self, word):
        """The image of a word over {0, 1}, letter by letter."""
        return word.translate(self._images)

    @cached_property
    def _images(self):
        return str.maketrans({"0": self.image0, "1": self.image1})

    def power(self, k):
        """The substitution s^k (images of the single letters under k-fold s)."""
        if k < 1:
            raise ValueError("power requires k >= 1")
        w0, w1 = self.image0, self.image1
        for _ in range(k - 1):
            w0, w1 = self.apply(w0), self.apply(w1)
        return Substitution(w0, w1)

    @cached_property
    def abelianization(self):
        """Letter-count matrix: row i holds (#0, #1) of the image of letter i."""
        return (
            (self.image0.count("0"), self.image0.count("1")),
            (self.image1.count("0"), self.image1.count("1")),
        )

    @cached_property
    def _trace_block(self):
        """(star, factors): the period letter s^k(star) and the trace-map block.

        A^T tracks star "0" and J A^T J (J the letter exchange) star "1";
        the one of :func:`star_letter` is factored into M_a matrices first.
        """
        if not self.primitive:
            raise SubstitutionError("trace map needs a primitive substitution")
        if not self.invertible:
            raise SubstitutionError("trace map needs an invertible substitution")
        (a00, a01), (a10, a11) = self.abelianization
        orders = [("0", [[a00, a10], [a01, a11]]), ("1", [[a11, a01], [a10, a00]])]
        if star_letter(self)[0] == "1":
            orders.reverse()
        for star, matrix in orders:
            factors = factor_matrix_product(matrix)
            if factors:
                return star, factors
        raise UnsupportedSubstitutionError("abelianization does not factor into M_a "
                                           "matrices; square the substitution")

    @cached_property
    def primitive(self):
        return check_primitive(self)

    @cached_property
    def invertible(self):
        return check_invertible(self)

    def text(self):
        return "0->%s;1->%s" % (self.image0, self.image1)

    def __str__(self):
        return self.text()


def parse_substitution(text):
    """Parse the ``0->01;1->0`` text form (no whitespace significance)."""
    s = text.replace(" ", "").replace("\t", "")
    parts = [p for p in s.split(";") if p]
    images = {}
    for part in parts:
        if "->" not in part:
            raise SubstitutionError("malformed substitution rule: %r" % part)
        lhs, rhs = part.split("->", 1)
        if lhs not in ("0", "1") or lhs in images:
            raise SubstitutionError("rule must map each of 0,1 exactly once: %r" % part)
        images[lhs] = _check_word(rhs)
    if set(images) != {"0", "1"}:
        raise SubstitutionError("substitution needs rules for both letters: %r" % text)
    return Substitution(images["0"], images["1"])


FIBONACCI = Substitution("01", "0")


def factor_matrix_product(matrix):
    """Factor a nonnegative integer 2x2 matrix into M_a factors, or None.

    Returns (a_1, ..., a_n) with matrix = M_{a_1} @ ... @ M_{a_n} and
    M_a = [[a,1],[1,0]]; greedy left-peeling by the continued-fraction
    algorithm.  None when the matrix is not such a product.
    """
    c = [[int(matrix[0][0]), int(matrix[0][1])], [int(matrix[1][0]), int(matrix[1][1])]]
    factors = []
    for _ in range(64):
        if c == [[1, 0], [0, 1]]:
            return tuple(factors) if factors else None
        cands = []
        if c[1][0] > 0:
            cands.append(c[0][0] // c[1][0])
        if c[1][1] > 0:
            cands.append(c[0][1] // c[1][1])
        if not cands:
            return None
        a = min(cands)
        if a < 1:
            return None
        nxt = [[c[1][0], c[1][1]], [c[0][0] - a * c[1][0], c[0][1] - a * c[1][1]]]
        if min(min(row) for row in nxt) < 0:
            return None
        factors.append(a)
        c = nxt
    return None


def check_primitive(s):
    """True iff the square of the abelianization is entrywise positive.

    A nonnegative n x n matrix with a positive power already has a
    positive power of exponent (n-1)^2 + 1 (Wielandt), which is 2 here.
    For A = [[p, q], [r, t]], A^2 = [[p^2 + qr, q(p+t)], [r(p+t), t^2 + qr]]
    is positive exactly when q, r and p + t are.
    """
    if not s.image0 or not s.image1:
        raise SubstitutionError("empty image word")
    (p, q), (r, t) = s.abelianization
    return q > 0 and r > 0 and p + t > 0


def check_invertible(s):
    """Nielsen test: s([0,1]) cyclically reduces to a rotation of [0,1]^(+-1).

    [0,1] denotes the commutator 0.1.0^-1.1^-1.  Group words spell the
    letters 0, 1 as a, b and their inverses as A, B, so the inverse of a
    word is its reverse with the case swapped.
    """
    spell = str.maketrans("01", "ab")
    a, b = s.image0.translate(spell), s.image1.translate(spell)
    reduced = []
    for g in a + b + a[::-1].swapcase() + b[::-1].swapcase():
        if reduced and reduced[-1] == g.swapcase():
            reduced.pop()
        else:
            reduced.append(g)
    i, j = 0, len(reduced)
    while j - i >= 2 and reduced[i] == reduced[j - 1].swapcase():
        i, j = i + 1, j - 1
    w = "".join(reduced[i:j])
    return len(w) == 4 and (w in "abABabAB" or w in "baBAbaBA")


# -- fixed points ------------------------------------------------------------

def star_letter(s):
    """The fixed point's letter: (star, power), s^power fixing star.

    :func:`fixed_point_prefix`, the DOS and ``scan_beta`` read the fixed
    point from it; the period word may start elsewhere (:func:`periodic_word`).
    Preference order 0 then 1 for s itself, then 0 for s^2: if s(0)
    starts with 1 and s(1) starts with 0, then s^2(0) starts with 0.
    """
    if not s.image0 or not s.image1:
        raise SubstitutionError("empty image word")
    if s.image0[0] == "0":
        return "0", 1
    if s.image1[0] == "1":
        return "1", 1
    return "0", 2


def _prefix_power(s, n):
    """(star, sp, n) for an n-letter fixed-point prefix: sp is s or s^2, fixing star.

    Checks that n is a whole number, then n against 1 and the cap, and
    hands n back as an int, so 10.0 plans as 10.  A prefix longer than
    one letter needs sp(star) = star w with w nonempty, which makes
    every sp^j(star) a proper prefix of the next.
    """
    if n % 1 != 0:   # NaN and inf too
        raise ValueError("need a whole number of letters, got length %r" % (n,))
    if n < 1:
        raise ValueError("need n >= 1")
    if n > WORD_LENGTH_CAP:
        raise ResourceLimitError("requested prefix exceeds length cap")
    star, power = star_letter(s)
    sp = s if power == 1 else s.power(power)
    if n > 1 and sp.image(star) == star:
        raise UnsupportedSubstitutionError("substitution does not expand its fixed letter")
    return star, sp, int(n)


def fixed_point_prefix(s, n):
    """First n letters of the fixed point of s (or of s^2 when needed).

    With sp(star) = star w the fixed point is star w sp(w) sp^2(w) ...,
    so each piece is the image of the one before it, every letter is
    expanded once and the cost is linear in n.
    """
    star, sp, n = _prefix_power(s, n)
    pieces = [sp.image(star)]
    size, w = len(pieces[0]), pieces[0][1:]
    while size < n:
        w = sp.apply(w)
        pieces.append(w)
        size += len(w)
    return "".join(pieces)[:n]


def periodic_word(s, k):
    """The period word s^k(star), over which x_k(E) is the half-trace.

    star is the letter the trace-map block tracks, not always the fixed
    point's (:func:`star_letter`): for 0->1;1->01 it is 1.  Raises as
    ``recipe_from_substitution`` does for an s without a trace map.
    """
    return _image_word(s, s._trace_block[0], k)


def periodic_word_length(s, k):
    """|s^k(star)| of :func:`periodic_word`, from the abelianization (no expansion)."""
    return _image_length(s, s._trace_block[0], k)


def _image_word(s, letter, k):
    """s^k(letter), refused past ``WORD_LENGTH_CAP`` letters before it is built."""
    if _image_length(s, letter, k) > WORD_LENGTH_CAP:
        raise ResourceLimitError("s^%d(%s) exceeds the %d-letter cap"
                                 % (k, letter, WORD_LENGTH_CAP))
    word = letter
    for _ in range(k):
        word = s.apply(word)
    return word


def _image_length(s, letter, k):
    """|s^k(letter)|, read from the length table (no expansion)."""
    if k < 0:
        raise ValueError("need k >= 0")
    return next(islice(_length_rows(s), k, None))[letter]


def _length_rows(s):
    """The length table: rows {c: |s^j(c)|} for j = 0, 1, 2, ..., exact ints."""
    row = {"0": 1, "1": 1}
    while True:
        yield row
        row = {c: sum(row[x] for x in s.image(c)) for c in "01"}


def _image_prefix_blocks(sp, letter, k, n):
    """Blocks (j, c) in reading order whose words sp^j(c) spell sp^k(letter)[:n].

    Levels never increase along the list and no level holds more blocks
    than the longest image of sp has letters (Dumont-Thomas).  The plan
    descends through sp^j(c) = sp^(j-1)(x_1) ... sp^(j-1)(x_r), keeping
    the whole blocks that fit and entering the one the prefix ends
    inside; only block lengths are used, the word is never built.
    """
    lengths = list(islice(_length_rows(sp), k + 1))
    blocks, j, c, need = [], k, letter, n
    while need:
        if lengths[j][c] == need:
            blocks.append((j, c))
            break
        j -= 1
        for x in sp.image(c):
            if lengths[j][x] > need:
                c = x
                break
            blocks.append((j, x))
            need -= lengths[j][x]
    return blocks


def _prefix_blocks(s, n):
    """Blocks whose words concatenate to :func:`fixed_point_prefix` (s, n).

    Returns (sp, blocks): sp is s or s^2, the power whose fixed point
    the prefix reads, and blocks is the plan of :func:`_image_prefix_blocks`
    for sp^k(star)[:n], k the first level at least n letters long.

    The plan needs |sp^j(star)| to grow exponentially, so that it has
    O(log n) levels.  The one way an expanding fixed letter grows only
    linearly is sp(star) = star other^r with sp(other) = other: the fixed
    point is star other other ..., eventually periodic, and a prefix of
    more than one letter is refused with
    :class:`UnsupportedSubstitutionError` rather than planned with one
    level per letter.
    """
    star, sp, n = _prefix_power(s, n)
    other = "1" if star == "0" else "0"
    if n > 1 and sp.image(other) == other and sp.image(star).count(star) == 1:
        raise UnsupportedSubstitutionError("fixed letter grows only linearly; "
                                           "its fixed point is eventually periodic")
    k = next(j for j, row in enumerate(_length_rows(sp)) if row[star] >= n)
    return sp, _image_prefix_blocks(sp, star, k, n)


def distinct_factors(word, k):
    """Number of distinct length-k factors of a word (complexity oracle)."""
    if k > len(word):
        return 0
    return len({word[i : i + k] for i in range(len(word) - k + 1)})
