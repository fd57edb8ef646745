import itertools
import math

import numpy as np
import pytest

from sturmtrace.rotation import (
    QuadraticSurd,
    RotationParams,
    cf_value,
    continued_fraction,
    rotation_number,
    rotation_sample,
    scan_beta,
)
from sturmtrace.substitution import (FIBONACCI, Substitution, SubstitutionError, fixed_point_prefix,
                                    parse_substitution)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_surd_value_and_reciprocal():
    x = QuadraticSurd(-1, 1, 5, 2)  # (sqrt5 - 1)/2
    assert abs(x.value() - GOLDEN) < 1e-15
    inv = x.reciprocal()
    assert abs(inv.value() - 1.0 / GOLDEN) < 1e-12
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(1, 1, 5, 0)
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(0, 0, 5, 1).reciprocal()


def test_continued_fraction_exact_near_integers():
    # both surds are about 5e-17, which reads as 0.0 in double: every digit
    # comes from integer arithmetic.  sqrt(n^2 + 1) - n = [0; 2n, 2n, ...]
    # (denominator > 0); m - sqrt(m^2 - 1) = [0; 2m - 1, 1, 2m - 2, 1, 2m - 2, ...]
    # (negative sqrt coefficient, the digits taken with Q < 0)
    n = 10 ** 16
    assert continued_fraction(QuadraticSurd(-n, 1, n * n + 1, 1)) == ((), (2 * n,))
    assert continued_fraction(QuadraticSurd(n, -1, n * n - 1, 1)) == ((2 * n - 1,), (1, 2 * n - 2))


def test_continued_fraction_golden_and_metallic():
    golden = QuadraticSurd(-1, 1, 5, 2)
    pre, per = continued_fraction(golden)
    assert pre == () and per == (1,)
    silver = QuadraticSurd(-1, 1, 2, 1)  # sqrt2 - 1
    pre, per = continued_fraction(silver)
    assert pre == () and per == (2,)
    # 1/phi^2 = [0; 2, 1, 1, 1, ...]
    x = QuadraticSurd(3, -1, 5, 2)
    pre, per = continued_fraction(x)
    assert pre == (2,) and per == (1,)


def test_cf_value_reconstructs():
    assert abs(cf_value((), (1,)) - GOLDEN) < 1e-14
    assert abs(cf_value((2,), (1,)) - (1 - GOLDEN)) < 1e-14


def test_rotation_number_fibonacci():
    rot = rotation_number(FIBONACCI)
    assert rot.cf_preperiod == ()
    assert rot.cf_period == (1,)
    assert abs(rot.alpha - GOLDEN) < 1e-14


def test_rotation_number_metallic_and_square():
    # alpha is the frequency of the dominant letter 0: 1/sqrt2 = [0; 1, 2, 2, ...]
    rot = rotation_number(Substitution("001", "0"))
    assert rot.cf_period == (2,) and rot.cf_preperiod == (1,)
    assert abs(rot.alpha - 1.0 / math.sqrt(2.0)) < 1e-14
    rot2 = rotation_number(FIBONACCI.power(2))
    assert rot2.cf_period == (1,)
    assert abs(rot2.alpha - GOLDEN) < 1e-14


def test_rotation_number_swapped_letters_stays_in_unit_interval():
    swapped = Substitution("1", "10")
    rot = rotation_number(swapped)
    assert 0 < rot.alpha < 1
    assert rot.cf_period == (1,)


def test_rotation_number_rejects_degenerate():
    with pytest.raises(Exception):
        rotation_number(Substitution("0", "1"))  # not primitive
    with pytest.raises(SubstitutionError, match="invertible"):
        rotation_number(Substitution("01", "10"))  # Thue-Morse: primitive, not invertible


def test_rotation_sample_trivials():
    alpha = RotationParams((), (1,)).alpha
    params = RotationParams((), (1,), beta=1.0 - alpha)
    assert rotation_sample(params, 0, 0) == "1"  # frac(beta) in [1-a, 1)
    assert len(rotation_sample(params, 5, 5)) == 1
    with pytest.raises(ValueError):
        rotation_sample(params, 3, 2)


def test_rotation_params_validation():
    with pytest.raises(ValueError):
        RotationParams((), ())
    with pytest.raises(ValueError):
        RotationParams((0,), (1,))


def test_beta_scan_recovers_fibonacci_prefix():
    # the golden-slope sampling reproduces the fixed point after the letter
    # exchange that relates the 0-heavy fixed point to the 1-frequent word
    best = scan_beta(FIBONACCI, n_letters=20)
    assert best["match_len"] == 20
    rot = rotation_number(FIBONACCI)
    trial = RotationParams(rot.cf_preperiod, rot.cf_period, beta=best["beta"],
                           closed_right=best["closed_right"], surd=rot.surd)
    word = rotation_sample(trial, 1, 20)
    if best["swap_letters"]:
        word = word.translate(str.maketrans("01", "10"))
    assert word == fixed_point_prefix(FIBONACCI, 20)


@pytest.mark.parametrize("text", ["0->001;1->0", "0->0001;1->0"])
def test_beta_scan_recovers_metal_mean_prefixes(text):
    # the dominant letter's frequency, not the Perron slope, is the angle
    assert scan_beta(parse_substitution(text), n_letters=200)["match_len"] == 200


@pytest.mark.parametrize("text", ["0->01;1->0", "0->1;1->10", "0->100;1->10"])
def test_golden_mean_alpha_is_the_golden_ratio_conjugate(text):
    # the dominant letter's frequency is 1/phi for each of them, to the bit
    assert rotation_number(parse_substitution(text)).alpha == 0.6180339887498949


def test_continued_fraction_when_q_does_not_divide():
    # (1 + sqrt3)/3: Q = 3 does not divide D - P^2 = 2, so the surd is scaled first
    x = QuadraticSurd(1, 1, 3, 3)
    pre, per = continued_fraction(x)
    assert (pre, per) == ((1,), (10, 5))
    v, digits = x.value(), []
    for _ in range(6):
        v = 1.0 / v
        digits.append(int(v))
        v -= int(v)
    assert digits == [1, 10, 5, 10, 5, 10]
    assert abs(cf_value(pre, per) - x.value()) < 1e-15


def test_continued_fraction_refusals():
    with pytest.raises(ValueError, match="not in \\(0,1\\)"):
        continued_fraction(QuadraticSurd(1, 1, 5, 3))   # (1 + sqrt5)/3 > 1
    for rational in (QuadraticSurd(1, 1, 4, 5), QuadraticSurd(1, 0, 5, 3)):
        with pytest.raises(ValueError, match="quadratic irrational"):
            continued_fraction(rational)


def test_continued_fraction_gives_up_after_10000_terms():
    # frac(sqrt 1000000007) has a CF period of 12 352 terms
    with pytest.raises(RuntimeError, match="no CF period found within 10000 terms"):
        continued_fraction(QuadraticSurd(-31622, 1, 1000000007, 1))


def test_perron_discriminant_of_primitive_unimodular_matrices_is_not_a_square():
    # the slope of rotation_number is irrational: tr^2 - 4 det, det = +-1, is a
    # square only for [[0, 1], [1, 0]] and triangular trace-2 matrices
    squares = []
    for a, b, c, d in itertools.product(range(8), repeat=4):
        m = np.array([[a, b], [c, d]])
        disc = (a + d) ** 2 - 4 * (a * d - b * c)
        if abs(a * d - b * c) == 1 and math.isqrt(disc) ** 2 == disc:
            squares.append((a, b, c, d))
            assert not (m @ m > 0).all()   # a 2x2 matrix is primitive iff its square is positive
    assert (0, 1, 1, 0) in squares and (1, 5, 0, 1) in squares
