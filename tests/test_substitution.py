import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_h

from sturmtrace.substitution import (
    FIBONACCI,
    WORD_LENGTH_CAP,
    ResourceLimitError,
    Substitution,
    SubstitutionError,
    UnsupportedSubstitutionError,
    _image_length,
    _image_prefix_blocks,
    _prefix_blocks,
    check_invertible,
    check_primitive,
    distinct_factors,
    fixed_point_prefix,
    parse_substitution,
    periodic_word,
    periodic_word_length,
    star_letter,
)

THUE_MORSE = Substitution("01", "10")
METAL = Substitution("001", "0")


def iterate_fixed_point(s, power, star, n):
    # direct-iteration oracle, independent of fixed_point_prefix internals
    word = star
    sp = s if power == 1 else s.power(power)
    while len(word) < n:
        word = sp.apply(word)
    return word[:n]


def test_primitive_examples():
    assert check_primitive(FIBONACCI) is True
    assert check_primitive(Substitution("0", "1")) is False
    assert check_primitive(Substitution("01", "11")) is False  # stays triangular


def test_primitive_empty_image_rejected():
    with pytest.raises(SubstitutionError):
        check_primitive(Substitution("", "0"))


def test_invertible_examples():
    assert check_invertible(FIBONACCI) is True
    assert check_invertible(THUE_MORSE) is False
    assert check_invertible(Substitution("0", "1")) is True


def test_invertibility_implies_unimodular_abelianization():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        w0 = "".join(rng.choice(["0", "1"], size=rng.integers(1, 7)))
        w1 = "".join(rng.choice(["0", "1"], size=rng.integers(1, 7)))
        s = Substitution(w0, w1)
        checked += 1
        if check_invertible(s):
            assert abs(int(np.linalg.det(np.array(s.abelianization)))) == 1


# -- reference implementations the class checks and prefixes are pinned to ----

def reference_invertible(s):
    """Nielsen test on int lists: +-1 is the letter 0 and its inverse, +-2 the letter 1."""
    def cyclic_reduce(w):
        out = []
        for g in w:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
        while len(out) >= 2 and out[0] == -out[-1]:
            out = out[1:-1]
        return out

    a = [1 if c == "0" else 2 for c in s.image0]
    b = [1 if c == "0" else 2 for c in s.image1]
    w = cyclic_reduce(a + b + [-g for g in reversed(a)] + [-g for g in reversed(b)])
    rotations = {tuple(t[i:] + t[:i]) for t in ([1, 2, -1, -2], [2, 1, -2, -1]) for i in range(4)}
    return tuple(w) in rotations


def reference_primitive(s):
    """Some power <= 4 of the abelianization is entrywise positive."""
    if not s.image0 or not s.image1:
        raise SubstitutionError("empty image word")
    m = np.array(s.abelianization, dtype=np.int64)
    acc = np.eye(2, dtype=np.int64)
    for _ in range(4):
        acc = acc @ m
        if (acc > 0).all():
            return True
    return False


def reference_prefix(s, n):
    """Iterate and truncate from the fixed letter, refusing what never grows."""
    if n < 1:
        raise ValueError("need n >= 1")
    if s.image0[0] == "0":
        star, sp = "0", s
    elif s.image1[0] == "1":
        star, sp = "1", s
    else:
        star, sp = "0", s.power(2)
    if n > 1 and sp.image(star) == star:
        raise UnsupportedSubstitutionError("fixed letter does not grow")
    word = star
    while len(word) < n:
        word = sp.apply(word)[:n]
    return word


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # refusals compare by type
        return type(exc)


IMAGES = ["".join(t) for k in range(1, 7) for t in itertools.product("01", repeat=k)]


def test_class_checks_and_prefixes_match_the_references():
    # every pair of images of length 1-6: prefixes at n = 0, 1, 2 and 64,
    # and at every n <= 64 when both images have at most 3 letters
    pairs = 0
    for w0, w1 in itertools.product(IMAGES, repeat=2):
        s = Substitution(w0, w1)
        assert check_invertible(s) is reference_invertible(s), s
        assert check_primitive(s) is reference_primitive(s), s
        lengths = range(65) if len(w0) <= 3 and len(w1) <= 3 else (0, 1, 2, 64)
        for n in lengths:
            assert _outcome(fixed_point_prefix, s, n) == _outcome(reference_prefix, s, n), (s, n)
        pairs += 1
    assert pairs == 126 ** 2


def test_class_checks_refuse_as_the_references_do():
    for s in (Substitution("", "0"), Substitution("01", ""), Substitution("", "")):
        assert check_invertible(s) is reference_invertible(s)
        with pytest.raises(SubstitutionError, match="empty image"):
            check_primitive(s)


@pytest.mark.parametrize("s", [Substitution("011", "1"), FIBONACCI])
def test_fixed_point_prefix_expands_linearly_many_letters(monkeypatch, s):
    n = 10 ** 5
    applied = []
    apply = Substitution.apply

    def counting_apply(self, word):
        applied.append(len(word))
        return apply(self, word)

    monkeypatch.setattr(Substitution, "apply", counting_apply)
    assert len(fixed_point_prefix(s, n)) == n
    assert sum(applied) <= 3 * n


def test_slowly_growing_fixed_letter_prefix():
    assert fixed_point_prefix(Substitution("011", "1"), 10 ** 5) == "0" + "1" * (10 ** 5 - 1)


def test_invertibility_of_a_long_power():
    # images of 10946 and 6765 letters
    assert FIBONACCI.power(20).invertible is True


def test_fixed_point_prefix_fibonacci():
    assert fixed_point_prefix(FIBONACCI, 8) == "01001010"
    assert fixed_point_prefix(FIBONACCI, 1) == "0"
    assert fixed_point_prefix(FIBONACCI, 30) == iterate_fixed_point(FIBONACCI, 1, "0", 30)


def test_fixed_point_prefix_needs_square():
    s = Substitution("10", "0")
    star, power = star_letter(s)
    assert (star, power) == ("0", 2)
    assert fixed_point_prefix(s, 6) == iterate_fixed_point(s, 2, "0", 6)


BLOCK_CASES = ("0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01", "0->0001;1->0",
               "0->100;1->10", "0->00;1->0")


@pytest.mark.parametrize("s", [parse_substitution(t) for t in BLOCK_CASES]
                         + [THUE_MORSE, Substitution("10", "0")])
def test_apply_equals_the_letter_by_letter_join(s):
    join = lambda word: "".join(s.image(c) for c in word)
    rng = np.random.default_rng(3)
    for n in list(range(6)) + [17, 100, 1000]:
        word = "".join(rng.choice(["0", "1"], n).tolist())
        assert s.apply(word) == join(word)
    s4 = s.power(4)
    assert s.power(5) == Substitution(join(s4.image0), join(s4.image1))


@pytest.mark.parametrize("text", BLOCK_CASES)
def test_prefix_blocks_spell_the_fixed_point_prefix(text):
    s = parse_substitution(text)
    for n in list(range(1, 200)) + [610, 987, 4181, 6765, 10000]:
        sp, blocks = _prefix_blocks(s, n)
        assert sp == (s if star_letter(s)[1] == 1 else s.power(2))
        longest = max(len(sp.image0), len(sp.image1))
        word = "".join(sp.power(j).image(c) if j else c for j, c in blocks)
        assert word == fixed_point_prefix(s, n)
        levels = [j for j, _ in blocks]
        assert levels == sorted(levels, reverse=True)
        assert max(levels.count(j) for j in levels) <= longest


@pytest.mark.parametrize("text", BLOCK_CASES)
def test_image_prefix_blocks_spell_image_prefixes(text):
    # the band solver's window s^k(star)[:q - 1] is one such prefix
    s = parse_substitution(text)
    longest = max(len(s.image0), len(s.image1))
    for c in "01":
        for k in range(7):
            word = s.power(k).image(c) if k else c
            for n in sorted(set(range(min(len(word), 60) + 1)) | {len(word) - 1, len(word)}):
                blocks = _image_prefix_blocks(s, c, k, n)
                assert "".join(s.power(j).image(x) if j else x for j, x in blocks) == word[:n]
                levels = [j for j, _ in blocks]
                assert levels == sorted(levels, reverse=True)
                assert all(levels.count(j) <= longest for j in levels)


def _image_length_by_matrix_power(s, letter, k):
    """|s^k(letter)| from a power of the abelianization, in exact integers."""
    m = np.array(s.abelianization, dtype=object)
    row = np.array([1, 0] if letter == "0" else [0, 1], dtype=object)
    return int((row @ np.linalg.matrix_power(m, k)).sum()) if k else 1


@pytest.mark.parametrize("text", BLOCK_CASES + ("0->0;1->10", "0->011;1->1", "0->01;1->10"))
def test_image_length_reads_the_length_table(text):
    s = parse_substitution(text)
    for c in "01":
        for k in list(range(41)) + [100]:
            got = _image_length(s, c, k)
            assert type(got) is int and got == _image_length_by_matrix_power(s, c, k)
    with pytest.raises(ValueError):
        _image_length(s, "0", -1)


def test_prefix_blocks_errors_and_no_expansion():
    with pytest.raises(ValueError):
        _prefix_blocks(FIBONACCI, 0)
    with pytest.raises(ResourceLimitError):
        _prefix_blocks(FIBONACCI, WORD_LENGTH_CAP + 1)
    with pytest.raises(UnsupportedSubstitutionError):
        _prefix_blocks(Substitution("0", "10"), 5)  # star 0 never grows
    assert fixed_point_prefix(Substitution("0", "10"), 1) == "0"
    with pytest.raises(UnsupportedSubstitutionError):
        _prefix_blocks(Substitution("011", "1"), 5)  # star 0 grows linearly
    assert fixed_point_prefix(Substitution("011", "1"), 5) == "01111"
    # the plan for a cap-length prefix comes from block lengths alone
    sp, blocks = _prefix_blocks(METAL, WORD_LENGTH_CAP)
    assert sum(_image_length(sp, c, j) for j, c in blocks) == WORD_LENGTH_CAP


@given(st_h.integers(min_value=1, max_value=200), st_h.integers(min_value=0, max_value=200))
@settings(max_examples=40)
def test_prefix_stability(n, extra):
    m = n + extra
    assert fixed_point_prefix(FIBONACCI, m).startswith(fixed_point_prefix(FIBONACCI, n))


def test_periodic_word_lengths_are_fibonacci():
    lengths = [len(periodic_word(FIBONACCI, k)) for k in range(8)]
    assert lengths == [1, 2, 3, 5, 8, 13, 21, 34]
    assert len(periodic_word(FIBONACCI, 5)) == 13  # F_7
    assert periodic_word(FIBONACCI, 0) == "0"
    assert periodic_word(FIBONACCI, 2) == "010"


def test_periodic_word_length_matches_abelianization_row_sums():
    for s in (FIBONACCI, METAL, FIBONACCI.power(2)):
        for k in range(7):
            assert periodic_word_length(s, k) == len(periodic_word(s, k))


def test_periodic_word_cap():
    with pytest.raises(ResourceLimitError):
        periodic_word(FIBONACCI, 60)  # F_62 letters is way past the cap
    for f in (periodic_word, periodic_word_length):
        with pytest.raises(ValueError):
            f(FIBONACCI, -1)


def test_every_letter_occurs_eventually():
    for s in (FIBONACCI, METAL, Substitution("10", "0")):
        for k in range(4, 8):
            w = periodic_word(s, k)
            assert "0" in w and "1" in w


def test_sturmian_complexity_k_plus_1():
    prefix = fixed_point_prefix(FIBONACCI, 4000)
    for k in list(range(1, 31)):
        assert distinct_factors(prefix, k) == k + 1
    prefix = fixed_point_prefix(METAL, 4000)
    for k in (1, 5, 17, 30):
        assert distinct_factors(prefix, k) == k + 1


def test_parse_and_text_roundtrip():
    s = parse_substitution("0->01;1->0")
    assert s == FIBONACCI
    assert parse_substitution(s.text()) == s
    with pytest.raises(SubstitutionError):
        parse_substitution("0->01")
    with pytest.raises(SubstitutionError):
        parse_substitution("0->01;1->2")
    with pytest.raises(SubstitutionError):
        parse_substitution("0->01;0->0;1->0")
    with pytest.raises(SubstitutionError, match="malformed"):
        parse_substitution("0->01;1-0")


def test_abelianization_counts():
    assert FIBONACCI.abelianization == ((1, 1), (1, 0))
    assert METAL.abelianization == ((2, 1), (1, 0))
    assert FIBONACCI.power(2).abelianization == ((2, 1), (1, 1))


def test_refusals_of_degenerate_inputs():
    with pytest.raises(ValueError, match="k >= 1"):
        FIBONACCI.power(0)
    for s in (Substitution("", "1"), Substitution("01", "")):
        with pytest.raises(SubstitutionError, match="empty image"):
            star_letter(s)
    assert distinct_factors("0101", 5) == 0
