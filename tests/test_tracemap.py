import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_h

import sturmtrace as st
from sturmtrace.jacobi import half_trace, word_transfer
from sturmtrace.substitution import Substitution, factor_matrix_product, periodic_word
import sturmtrace.tracemap as tracemap_mod
from sturmtrace.tracemap import (
    OrbitVerdict,
    TraceMapRecipe,
    _iterate,
    _verdicts,
    apply_period,
    apply_period_inverse,
    classify,
    classify_batch,
    fibonacci_map,
    fibonacci_map_inverse,
    fricke_vogt,
    p_swap,
    recipe_from_substitution,
    step,
    surface_section,
    t_factor,
    u_inverse,
    u_map,
)

METAL = Substitution("001", "0")


def torus_point(theta, phi):
    return (math.cos(2 * math.pi * (theta + phi)),
            math.cos(2 * math.pi * theta),
            math.cos(2 * math.pi * phi))


def test_fricke_vogt_examples():
    assert fricke_vogt((1.0, 1.0, 1.0)) == 0.0
    assert fricke_vogt((0.0, 0.0, 0.0)) == -1.0
    assert abs(fricke_vogt(torus_point(0.3, 0.13))) < 1e-12


coords = st_h.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(coords, coords, coords)
@settings(max_examples=200)
def test_elementary_inverses(x, y, z):
    p = (x, y, z)
    for fwd, back in ((u_map, u_inverse), (p_swap, p_swap),
                      (fibonacci_map, fibonacci_map_inverse)):
        q = back(fwd(p))
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-9


def test_fibonacci_map_equals_t1():
    # the composition U o P is literally the classic map f: the coordinate
    # permutation relating them is the identity, pinned here by search
    rng = np.random.default_rng(3)
    perms = list(itertools.permutations(range(3)))
    surviving = []
    for perm in perms:
        ok = True
        for _ in range(50):
            p = tuple(rng.uniform(-2, 2, size=3))
            lhs = t_factor(1, tuple(p[i] for i in perm))
            lhs = tuple(lhs[perm.index(i)] for i in range(3))
            if max(abs(a - b) for a, b in zip(lhs, fibonacci_map(p))) > 1e-12:
                ok = False
                break
        if ok:
            surviving.append(perm)
    assert (0, 1, 2) in surviving


def test_recipe_examples():
    assert st.recipe_from_substitution(st.FIBONACCI).period == (1,)
    assert st.recipe_from_substitution(st.FIBONACCI.power(2)).period == (1, 1)
    assert st.recipe_from_substitution(METAL).period == (2,)
    with pytest.raises(Exception):
        st.recipe_from_substitution(Substitution("01", "10"))  # Thue-Morse


def test_recipe_text_roundtrip():
    r = TraceMapRecipe(period=(2, 1), swapped_start=True)
    assert r.text() == "period=[2,1]"
    r2 = TraceMapRecipe(period=(1,), swapped_start=False)
    assert r2.text() == "period=[1];start=pair10"
    assert (r.star, r2.star) == ("0", "1")  # the start decides the period letter


@pytest.mark.parametrize("text", ["0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01"])
def test_recipe_argument_is_redundant(text):
    # the recipe= of these three calls only repeats recipe_from_substitution(s)
    s = st.parse_substitution(text)
    r = recipe_from_substitution(s)
    params = st.JacobiParams(1.0, 2.0)
    bands = st.floquet_bands(s, params, 6)
    assert st.floquet_bands(s, params, 6, recipe=r) == bands
    E = np.linspace(*st.spectrum.default_energy_range(params), 33)
    assert (st.dynamical_spectrum_probe(s, params, E, recipe=r)
            == st.dynamical_spectrum_probe(s, params, E))
    for j in range(1, bands.band_count):
        assert (st.spectrum.combinatorial_gap_label(s, bands, j, recipe=r)
                == st.spectrum.combinatorial_gap_label(s, bands, j))


def test_factor_matrix_product():
    assert factor_matrix_product([[1, 1], [1, 0]]) == (1,)
    assert factor_matrix_product([[2, 1], [1, 1]]) == (1, 1)
    assert factor_matrix_product([[2, 1], [1, 0]]) == (2,)
    assert factor_matrix_product([[7, 3], [2, 1]]) == (3, 2)
    assert factor_matrix_product([[0, 1], [1, 1]]) is None


def test_step_fixes_singularity_and_identity():
    recipe = st.recipe_from_substitution(st.FIBONACCI)
    assert step(recipe, (1.0, 1.0, 1.0), 7) == (1.0, 1.0, 1.0)
    p = (0.3, -0.2, 0.9)
    assert step(recipe, p, 0) == p


def test_step_matches_transfer_oracle():
    # half-trace over s^k(star) against the brute-force matrix product
    rng = np.random.default_rng(11)
    for s in (st.FIBONACCI, METAL, st.FIBONACCI.power(2)):
        recipe = st.recipe_from_substitution(s)
        for _ in range(10):
            p = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
            q = rng.uniform(-3, 3)
            E = rng.uniform(-3, 3)
            params = st.JacobiParams(p, q)
            l0 = st.initial_conditions_grid(params, E)
            for k in range(1, 7):
                ht = half_trace(word_transfer(params, periodic_word(s, k), E))
                tm = step(recipe, l0, k)[0]
                assert abs(ht - tm) <= 1e-9 * max(1.0, abs(ht))


def compose(s1, s2):
    # (s1 o s2)(letter) = s1 applied to the word s2(letter)
    return Substitution(s1.apply(s2.image0), s1.apply(s2.image1))


def test_step_matches_oracle_on_random_invertible_compositions():
    # random products of invertible generators reach beyond the canonical
    # examples, including substitutions whose frequent letter is 1
    gens = [Substitution("01", "0"), Substitution("10", "0"),
            Substitution("1", "10"), Substitution("1", "01")]
    rng = np.random.default_rng(17)
    tested = 0
    unsupported = 0
    while tested < 12:
        s = gens[rng.integers(len(gens))]
        for _ in range(int(rng.integers(0, 3))):
            s = compose(s, gens[rng.integers(len(gens))])
        if not (s.primitive and s.invertible) or len(s.image0) + len(s.image1) > 24:
            continue
        try:
            recipe = recipe_from_substitution(s)
        except Exception:
            unsupported += 1
            assert unsupported < 40
            continue
        tested += 1
        params = st.JacobiParams(rng.uniform(0.4, 2.0), rng.uniform(-2, 2))
        E = rng.uniform(-2, 2)
        l0 = st.initial_conditions_grid(params, E)
        word = recipe.star  # the orbit tracks the star the recipe chose
        for k in range(1, 5):
            word = s.apply(word)
            try:
                ht = half_trace(word_transfer(params, word, E))
                tm = step(recipe, l0, k)[0]
            except OverflowError:
                break
            if abs(ht) > 1e60 or abs(tm) > 1e60:
                break
            assert abs(ht - tm) <= 1e-8 * max(1.0, abs(ht)), (s.text(), k)


def random_recipe(rng):
    period = tuple(int(a) for a in rng.integers(1, 4, size=rng.integers(1, 4)))
    return TraceMapRecipe(period=period, swapped_start=bool(rng.integers(2)))


def scalar_orbit(recipe, point, n):
    """Start swap and n blocks as a composition of scalar t_factor calls."""
    if recipe.swapped_start:
        point = p_swap(point)
    for a in recipe.period * n:
        point = t_factor(a, point)
    return point


def test_kernel_equals_scalar_factor_composition():
    rng = np.random.default_rng(31)
    for _ in range(300):
        rec = random_recipe(rng)
        p = tuple(float(c) for c in rng.uniform(-2, 2, size=3))
        q = p
        for a in rec.period:
            q = t_factor(a, q)
        assert apply_period(rec, p) == q
        n = int(rng.integers(1, 7))
        x, y, z = scalar_orbit(rec, p, n)
        if all(math.isfinite(c) for c in (x, y, z)):
            assert step(rec, p, n) == (y, x, z)
        else:
            with pytest.raises(OverflowError):
                step(rec, p, n)


def clipped_orbit(factors, point, bound):
    """t_a factors applied with scalar u_map steps, each clipped as the kernel does."""
    x, y, z = point
    for a in factors:
        y, z = z, y
        for _ in range(a):
            v = 2.0 * x * z - y
            if bound is not None:
                v = bound if v > bound else -bound if v < -bound else v  # NaN stays NaN
            x, y = v, x
    return x, y, z


def test_kernel_never_writes_its_inputs_and_equals_the_scalar_maps():
    rng = np.random.default_rng(34)
    # 2x overflows where x*z would not: the order of 2.0 * x * z shows at (1e308, 0.1, 0)
    huge = [(1e200, 1e200, 1e200), (1e160, -1e160, 3.0), (2.0, 1e300, -1e300), (1e308, 0.1, 0.0),
            (math.inf, 0.5, 0.5), (0.5, -math.inf, 2.0), (math.nan, 0.2, 0.3), (1.0, 1.0, 1.0)]
    saturated = overflowed = False
    for _ in range(60):
        rec = random_recipe(rng)
        if max(rec.period) < 2:
            rec = TraceMapRecipe(period=rec.period + (int(rng.integers(2, 4)),),
                                 swapped_start=rec.swapped_start)
        factors = rec.period * int(rng.integers(1, 9))
        points = [tuple(rng.uniform(-3, 3, size=3)) for _ in range(40)] + huge
        lanes = np.array(points).T
        for bound in (None, 1e150, 50.0):
            for same_yz in (False, True):
                x, y, z = (c.copy() for c in lanes)
                if same_yz:
                    z = y
                before = [c.tobytes() for c in (x, y, z)]
                got = _iterate(factors, x, y, z, bound=bound)
                assert [c.tobytes() for c in (x, y, z)] == before
                want = [clipped_orbit(factors, (a, b, c), bound)
                        for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())]
                assert np.stack(got).tobytes() == np.array(want).T.tobytes(), (rec, bound)
                if bound is None:
                    overflowed |= bool(np.isinf(got[0]).any())
                else:
                    saturated |= bool((np.abs(got[0]) == bound).any())
    assert saturated and overflowed


def classify_loop(recipe, point, max_steps, escape_norm):
    """The scalar escape loop classify ran before it called classify_batch."""
    q = scalar_orbit(recipe, tuple(float(c) for c in point), 0)
    history = [max(abs(c) for c in q)]
    last_finite = q
    for n in range(1, max_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            for a in recipe.period:
                q = t_factor(a, q)
        if not all(math.isfinite(c) for c in q):
            return OrbitVerdict("escaped", n, last_finite, math.inf)
        last_finite = q
        norm = max(abs(c) for c in q)
        history.append(norm)
        if (
            min(abs(c) for c in q) > 1.0
            and norm > escape_norm
            and len(history) >= 4
            and history[-1] > history[-2] > history[-3] > history[-4]
        ):
            return OrbitVerdict("escaped", n, q, norm)
    return OrbitVerdict("bounded-so-far", max_steps, q, max(history))


def test_classify_equals_scalar_loop():
    rng = np.random.default_rng(32)
    recipes = [st.recipe_from_substitution(s) for s in (st.FIBONACCI, METAL)]
    recipes += [random_recipe(rng) for _ in range(6)]
    points = [tuple(rng.uniform(-3, 3, size=3)) for _ in range(60)]
    points += [torus_point(*rng.uniform(0, 1, size=2)) for _ in range(20)]
    points += [(1e200, 1e200, 1e200), (1e160, -1e160, 3.0), (2.0, 1e300, -1e300),
               (math.inf, 0.5, 0.5), (1.0, 1.0, 1.0)]  # overflowing and degenerate starts
    kinds = set()
    for rec in recipes:
        for max_steps, escape_norm in ((40, 1e3), (5, 10.0)):
            for p in points:
                got = classify(rec, p, max_steps=max_steps, escape_norm=escape_norm)
                want = classify_loop(rec, p, max_steps, escape_norm)
                assert repr(got) == repr(want), (rec, p)  # repr: exact, NaN-safe
                kinds.add((got.kind, math.isinf(got.max_norm)))
    assert kinds == {("escaped", True), ("escaped", False), ("bounded-so-far", False)}


def test_mixed_batch_equals_scalar_loop():
    # one call whose lanes leave the working set at different steps
    rng = np.random.default_rng(33)
    points = [tuple(rng.uniform(-3, 3, size=3)) for _ in range(150)]
    points += [tuple(rng.uniform(-12, 12, size=3)) for _ in range(50)]
    points += [torus_point(*rng.uniform(0, 1, size=2)) for _ in range(60)]
    points += [(1e200, 1e200, 1e200), (1e160, -1e160, 3.0), (2.0, 1e300, -1e300),
               (1e100, 1e100, 1e100), (1e60, 1e60, 1e60), (math.inf, 0.5, 0.5),
               (0.5, -math.inf, 2.0), (math.nan, 0.2, 0.3), (1.5, 2.0, math.nan),
               (1.0, 1.0, 1.0)]
    points = [points[i] for i in rng.permutation(len(points))]
    lanes = np.array(points).T
    recipes = [st.recipe_from_substitution(st.FIBONACCI), TraceMapRecipe(period=(2, 1)),
               TraceMapRecipe(period=(1, 3), swapped_start=False)]
    escape_steps = set()
    for rec in recipes:
        for max_steps in (1, 2, 3, 5, 40):
            at, last, max_norm = classify_batch(rec, *lanes, max_steps=max_steps)
            want = [classify_loop(rec, p, max_steps, 1e3) for p in points]
            got = _verdicts(at, last, max_norm, max_steps)
            for g, w, p in zip(got, want, points):
                assert repr(g) == repr(w), (rec, max_steps, p)  # repr: exact, NaN-safe
            want_at = np.array([w.steps_used if w.kind == "escaped" else max_steps + 1
                                for w in want])
            assert np.array_equal(at, want_at)
            assert np.array_equal(last, np.array([w.last_point for w in want]).T,
                                  equal_nan=True)
            assert np.array_equal(max_norm, np.array([w.max_norm for w in want]),
                                  equal_nan=True)
            escape_steps.update(at[at <= max_steps].tolist())
            if max_steps == 40:
                assert (at > max_steps).sum() >= 10  # bounded torus points stay in the batch
    assert {1, 2, 3, 4}.issubset(escape_steps) and max(escape_steps) > 5


@pytest.mark.parametrize("text", ["0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01"])
def test_probe_equals_per_energy_loop(text):
    s = st.parse_substitution(text)
    recipe = recipe_from_substitution(s)
    for p, q in ((1.0, 2.0), (-0.8, 1.1), (1.4, -3.0)):
        params = st.JacobiParams(p, q)
        lo, hi = st.spectrum.default_energy_range(params)
        energies = np.linspace(lo - 0.5, hi + 0.5, 257)
        got = st.dynamical_spectrum_probe(s, params, energies)
        want = [classify_loop(recipe, st.initial_conditions_grid(params, float(E)), 200, 1e3)
                for E in energies]
        assert repr(got) == repr(want)


def test_step_overflow_signals():
    recipe = st.recipe_from_substitution(st.FIBONACCI)
    with pytest.raises(OverflowError):
        step(recipe, (1e200, 1e200, 1e200), 4)


def test_invariant_conserved_by_blocks():
    rng = np.random.default_rng(5)
    for _ in range(300):
        period = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
        rec = TraceMapRecipe(period=period)
        p = tuple(rng.uniform(-2, 2, size=3))
        q = apply_period(rec, p)
        scale = 1.0 + abs(fricke_vogt(p)) + sum(abs(c) for c in q) ** 3
        assert abs(fricke_vogt(q) - fricke_vogt(p)) <= 1e-11 * scale


def test_period_block_invertible():
    rng = np.random.default_rng(6)
    for _ in range(300):
        period = tuple(rng.integers(1, 3, size=rng.integers(1, 3)))
        rec = TraceMapRecipe(period=period)
        p = tuple(rng.uniform(-2, 2, size=3))
        q = apply_period_inverse(rec, apply_period(rec, p))
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-9


def test_semiconjugacy_with_torus_automorphism():
    rng = np.random.default_rng(9)
    for s in (st.FIBONACCI, METAL, st.FIBONACCI.power(2)):
        rec = st.recipe_from_substitution(s)
        A = np.array(s.abelianization)
        for _ in range(200):
            v = rng.uniform(0.0, 1.0, size=2)
            lhs = torus_point(*(A @ v % 1.0))
            rhs = apply_period(rec, torus_point(*v))
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-9


def test_classify_examples():
    rec = st.recipe_from_substitution(st.FIBONACCI)
    v = classify(rec, (1.0, 1.0, 1.0), max_steps=30)
    assert v.kind == "bounded-so-far" and v.steps_used == 30
    v = classify(rec, (10.0, 10.0, 10.0), max_steps=30)
    assert v.kind == "escaped" and v.steps_used <= 10
    v = classify(rec, torus_point(0.31, 0.47), max_steps=120)
    assert v.kind == "bounded-so-far"
    with pytest.raises(ValueError):
        classify(rec, (0, 0, 0), max_steps=0)
    with pytest.raises(ValueError):
        classify(rec, (0, 0, 0), escape_norm=0.5)


def test_classify_batch_checks_its_settings():
    rec = st.recipe_from_substitution(st.FIBONACCI)
    lanes = (np.zeros(3), np.zeros(3), np.zeros(3))
    for kw in ({"max_steps": 0}, {"max_steps": -3}, {"escape_norm": 1.0}):
        with pytest.raises(ValueError):
            classify_batch(rec, *lanes, **kw)
        with pytest.raises(ValueError):
            surface_section(0.01, 8, **kw)
        with pytest.raises(ValueError):
            st.dynamical_spectrum_probe(st.FIBONACCI, st.JacobiParams(1.0, 2.0), [0.5], **kw)
    with pytest.raises(ValueError):
        # an empty chart classifies no pixel, and still checks
        surface_section(-1.5, 8, chart=(-0.9, 0.9, -0.9, 0.9), max_steps=0)


def test_no_lanes_return_at_once(monkeypatch):
    rec = st.recipe_from_substitution(st.FIBONACCI)

    def no_kernel(*args, **kw):
        raise AssertionError("kernel called with no lanes")

    monkeypatch.setattr(tracemap_mod, "_iterate", no_kernel)
    at, last, max_norm = classify_batch(rec, [], [], [], max_steps=200)
    for got, shape, dtype in ((at, (0,), np.int64), (last, (3, 0), float),
                              (max_norm, (0,), float)):
        assert got.shape == shape and got.dtype == dtype
    assert st.dynamical_spectrum_probe(st.FIBONACCI, st.JacobiParams(1.0, 2.0), []) == []


def test_escape_soundness():
    # escapers never drop back below the escape norm within 2x more blocks
    rng = np.random.default_rng(12)
    rec = st.recipe_from_substitution(st.FIBONACCI)
    found = 0
    while found < 200:
        p = tuple(rng.uniform(-3, 3, size=3))
        v = classify(rec, p, max_steps=40)
        if v.kind != "escaped" or not all(math.isfinite(c) for c in v.last_point):
            continue
        found += 1
        q = v.last_point
        for _ in range(2 * v.steps_used):
            q = apply_period(rec, q)
            norm = max(abs(c) for c in q)
            if not math.isfinite(norm):
                break
            assert norm >= 1e3


def test_surface_section_shapes_and_classes():
    r = surface_section(0.01, 64)
    assert r["steps"].shape == (2, 64, 64)
    total = (r["steps"] >= 0).sum()
    esc = ((r["steps"] >= 0) & (r["steps"] <= r["max_steps"])).sum()
    bnd = (r["steps"] > r["max_steps"]).sum()
    assert esc / total >= 0.01 and bnd / total >= 0.01
    tiny = surface_section(0.3, 2)
    assert tiny["steps"].shape == (2, 2, 2)
    for V, resolution in ((0.3, 1), (math.nan, 8), (math.inf, 8)):
        with pytest.raises(ValueError):
            surface_section(V, resolution)


def test_surface_section_invariant_sphere_bounded():
    r = surface_section(0.0, 32, chart=(-0.97, 0.97, -0.97, 0.97), max_steps=40)
    live = r["steps"] >= 0
    assert (r["steps"][live] > r["max_steps"]).all()


def test_surface_section_empty_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        surface_section(-1.5, 8, chart=(-0.9, 0.9, -0.9, 0.9))
    assert any("empty" in str(w.message) for w in caught)
