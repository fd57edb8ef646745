import hashlib
import itertools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st_h

import sturmtrace as st
import sturmtrace.spectrum as spectrum_mod
from sturmtrace.dos import IdsTable
from sturmtrace.jacobi import (eigen_count_below_grid, half_trace, initial_conditions_grid,
                               word_transfer)
from sturmtrace.spectrum import (
    SATURATION,
    BandCountError,
    BandSet,
    combinatorial_gap_label,
    default_energy_range,
    floquet_band_tower,
    gap_index_for_label,
    half_trace_grid,
    merge_intervals,
)
from sturmtrace.substitution import (Substitution, parse_substitution, periodic_word,
                                     periodic_word_length)

METAL = Substitution("001", "0")


def brute_force_bands(params, word, n_grid=200001):
    """Independent oracle: dense scan of the transfer-product half-trace.

    The scan multiplies the one-site transfer matrices of the period word
    (successor letter cyclic, as in ``word_transfer``) over the whole
    energy grid at once; edges are then bisected on the scalar
    ``word_transfer`` product.
    """
    lo, hi = default_energy_range(params)
    E = np.linspace(lo, hi, n_grid)
    m00, m01, m10, m11 = np.ones(n_grid), np.zeros(n_grid), np.zeros(n_grid), np.ones(n_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(word):
            pn1 = params.hopping(word[(i + 1) % len(word)])
            t00, t01 = (E - params.potential(c)) / pn1, -1.0 / pn1
            m00, m01, m10, m11 = (t00 * m00 + t01 * m10, t00 * m01 + t01 * m11,
                                  pn1 * m00, pn1 * m01)
    inside = np.abs(0.5 * (m00 + m11)) <= 1.0

    def g(e):
        return abs(half_trace(word_transfer(params, word, e))) - 1.0

    bands = []
    i = 0
    while i < n_grid:
        if inside[i]:
            j = i
            while j + 1 < n_grid and inside[j + 1]:
                j += 1
            # refine edges by bisection on the scalar transfer product
            a = E[i] if i == 0 else _bisect(g, E[i], E[i - 1])
            b = E[j] if j == n_grid - 1 else _bisect(g, E[j], E[j + 1])
            bands.append((a, b))
            i = j + 1
        else:
            i += 1
    return bands


def _bisect(g, ins, outs, tol=1e-12):
    for _ in range(100):
        if abs(ins - outs) <= tol:
            break
        mid = 0.5 * (ins + outs)
        if g(mid) <= 0:
            ins = mid
        else:
            outs = mid
    return 0.5 * (ins + outs)


def test_free_case_single_band():
    params = st.JacobiParams(1.0, 0.0)
    for k in (0, 1, 4, 7):
        b = st.floquet_bands(st.FIBONACCI, params, k)
        assert b.band_count == 1
        a, bb = b.bands[0]
        assert abs(a + 2.0) < 1e-10 and abs(bb - 2.0) < 1e-10


def test_level2_bands_match_cubic_oracle():
    params = st.JacobiParams(1.0, 2.0)
    got = st.floquet_bands(st.FIBONACCI, params, 2)
    expected = brute_force_bands(params, periodic_word(st.FIBONACCI, 2))
    assert got.band_count == len(expected) <= 3
    for (a, b), (c, d) in zip(got.bands, expected):
        assert abs(a - c) < 1e-8 and abs(b - d) < 1e-8


def test_level4_jacobi_bands_match_oracle():
    params = st.JacobiParams(1.4, 0.9)
    got = st.floquet_bands(st.FIBONACCI, params, 4)
    expected = brute_force_bands(params, periodic_word(st.FIBONACCI, 4))
    assert got.band_count == len(expected)
    for (a, b), (c, d) in zip(got.bands, expected):
        assert abs(a - c) < 1e-8 and abs(b - d) < 1e-8


def test_level3_swapped_letters_bands_match_oracle():
    # substitution whose frequent letter is 1: the recipe tracks star 1
    swapped = Substitution("1", "10")
    params = st.JacobiParams(0.8, 1.2)
    got = st.floquet_bands(swapped, params, 3)
    word = "1"
    for _ in range(3):
        word = swapped.apply(word)
    expected = brute_force_bands(params, word)
    assert got.band_count == len(expected)
    for (a, b), (c, d) in zip(got.bands, expected):
        assert abs(a - c) < 1e-8 and abs(b - d) < 1e-8


def test_band_count_bounded_by_degree():
    params = st.JacobiParams(1.0, 2.0)
    tower = floquet_band_tower(st.FIBONACCI, params, 8)
    lengths = [1, 2, 3, 5, 8, 13, 21, 34, 55]
    for k in range(9):
        assert tower[k].band_count <= lengths[k]


def test_band_edges_are_simple_crossings():
    # at each located edge the trace passes through +-1 with a sign change
    params = st.JacobiParams(1.0, 2.0)
    recipe = st.recipe_from_substitution(st.FIBONACCI)
    b = st.floquet_bands(st.FIBONACCI, params, 6)
    h = 50 * b.edge_tol
    for lo, hi in b.bands:
        for edge, inward in ((lo, +1.0), (hi, -1.0)):
            g_in = abs(half_trace_grid(recipe, params, np.array([edge + inward * h]), 6)[0]) - 1.0
            g_out = abs(half_trace_grid(recipe, params, np.array([edge - inward * h]), 6)[0]) - 1.0
            assert g_in < 0 < g_out


def test_semicontinuity_trend():
    # every energy of sigma_{k+2} lies near sigma_k, with shrinking epsilon
    params = st.JacobiParams(1.0, 1.0)
    tower = floquet_band_tower(st.FIBONACCI, params, 9)
    eps = []
    for k in (5, 6, 7):
        mids = [0.5 * (a + b) for a, b in tower[k + 2].bands]
        from sturmtrace.spectrum import _distance_to_bands
        eps.append(float(np.max(_distance_to_bands(np.array(mids), tower[k].bands))))
    assert eps[0] > eps[-1]


def test_hausdorff_examples():
    A = BandSet(((0.0, 1.0),))
    assert st.hausdorff_distance(A, A) == 0.0
    B = BandSet(((0.0, 2.0),))
    assert st.hausdorff_distance(A, B) == 1.0
    C = BandSet(((0.0, 0.5), (2.0, 2.5)))
    D = BandSet(((0.0, 2.5),))
    assert st.hausdorff_distance(C, D) == 0.75  # midpoint of the gap
    with pytest.raises(ValueError):
        st.hausdorff_distance(BandSet(()), A)


@pytest.mark.parametrize("bands", [((0.0, 1.0), (3.0, 2.0)), ((0.0, 1.0), (1.0, 2.0)),
                                   ((0.0, 1.0), (0.5, 2.0)), ((0.0, math.nan), (1.0, 2.0)),
                                   ((math.nan, 0.0),), ((0.0, 1.0), (math.nan, 2.0))])
def test_band_set_refuses_bad_edges_and_nan(bands):
    with pytest.raises(ValueError):
        BandSet(bands)


@pytest.mark.parametrize("bands", [((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)), (0.0, 1.0),
                                   (((0.0, 1.0),),)])
def test_band_set_refuses_what_is_not_pairs(bands):
    with pytest.raises(ValueError, match="pairs"):
        BandSet(bands)


def test_band_set_keeps_a_read_only_copy_of_its_edges():
    edges, pairs = np.array([[-0.0, 1.0], [2.0, 3.0]]), [[-0.0, 1.0], [2.0, 3.0]]
    a, b = BandSet(edges, level=2, edge_tol=1e-12, closed_gaps=1), BandSet(pairs)
    edges[0, 1], pairs[0][1] = 9.0, 9.0
    for bands in (a, b):
        assert bands.bands == ((-0.0, 1.0), (2.0, 3.0)) and bands.gaps() == [(1.0, 2.0)]
        assert bands.edges.dtype == np.float64 and bands.edges.shape == (2, 2)
        with pytest.raises(ValueError):
            bands.edges[0, 1] = 9.0
    # the repr of the tuple form, as the dataclass of tuples printed it
    assert repr(a) == "BandSet(bands=((-0.0, 1.0), (2.0, 3.0)), level=2, edge_tol=1e-12, closed_gaps=1)"
    assert repr(BandSet(())) == "BandSet(bands=(), level=-1, edge_tol=0.0, closed_gaps=0)"
    assert BandSet(((-0.0, 1.0),)) == BandSet(((0.0, 1.0),))
    assert b == BandSet(((0.0, 1.0), (2.0, 3.0))) != a
    assert b != BandSet(((0.0, 1.0),)) and b != BandSet(((0.0, 1.0), (2.0, 3.5)))


def test_band_measure_examples():
    assert st.band_measure(BandSet(((-2.0, 2.0),))) == 4.0
    assert st.band_measure(BandSet(())) == 0.0
    params = st.JacobiParams(1.0, 2.0)
    tower = floquet_band_tower(st.FIBONACCI, params, 6)
    measures = [tower[k].measure() for k in range(2, 7)]
    assert all(a > b for a, b in zip(measures, measures[1:]))


def test_band_sum_examples():
    one = BandSet(((0.0, 1.0),))
    assert st.band_sum(one, one).bands == ((0.0, 2.0),)
    touching = BandSet(((0.0, 1.0), (2.0, 3.0)))
    assert st.band_sum(touching, touching).bands == ((0.0, 6.0),)  # sums touch and merge
    cantorish = BandSet(((0.0, 1.0), (3.0, 4.0)))
    assert st.band_sum(cantorish, cantorish).bands == ((0.0, 2.0), (3.0, 5.0), (6.0, 8.0))
    signed = st.band_sum(BandSet(((-0.0, -0.0),)), BandSet(((-1.0, -0.0), (0.5, 1.0))))
    assert repr(signed.bands) == "((-1.0, -0.0), (0.5, 1.0))"


intervals = st_h.lists(
    st_h.tuples(st_h.floats(-10, 10), st_h.floats(0.01, 2.0)),
    min_size=1, max_size=6,
).map(lambda ps: merge_intervals([(a, a + w) for a, w in ps]))


@given(intervals, intervals)
@settings(max_examples=60)
def test_band_sum_commutative_and_monotone(a_bands, b_bands):
    A, B = BandSet(a_bands), BandSet(b_bands)
    ab = st.band_sum(A, B)
    ba = st.band_sum(B, A)
    assert ab.bands == ba.bands
    assert ab.measure() >= max(A.measure(), B.measure()) - 1e-12


def _merge_by_loop(intervals):
    """merge_intervals as a loop over the sorted pairs, kept as its oracle."""
    out = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals if b >= a):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def _restrict_by_loop(pairs, lo, hi):
    """restrict_bands as a loop of Python max and min, kept as its oracle."""
    return tuple((max(a, lo), min(b, hi)) for a, b in pairs if min(b, hi) >= max(a, lo))


def test_band_set_helpers_equal_their_pair_loops():
    # repr tells -0.0 from 0.0, so signed zeros must come out as the loops give them
    rng = np.random.default_rng(11)
    zeros = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.0, -0.0), (-0.0, 2.0), (math.nan, 1.0)]
    for trial in range(300):
        n = int(rng.integers(0, 12))
        a = np.round(rng.uniform(-5.0, 5.0, n), int(rng.integers(0, 3)))
        w = np.round(rng.uniform(-0.5, 2.0, n), int(rng.integers(0, 3)))
        pairs = [(float(x), float(x + y)) for x, y in zip(a, w)]
        pairs += [zeros[i] for i in rng.integers(0, len(zeros), int(rng.integers(0, 3)))]
        merged = merge_intervals(pairs)
        assert repr(merged) == repr(_merge_by_loop(pairs))
        assert repr(merge_intervals(np.array(pairs).reshape(-1, 2))) == repr(merged)
        lo, hi = (-0.0, 0.0) if trial % 5 == 0 else sorted(rng.uniform(-6, 6, 2).round(1).tolist())
        for bands in (merged, BandSet(merged), np.array(merged).reshape(-1, 2)):
            assert (repr(spectrum_mod.restrict_bands(bands, lo, hi))
                    == repr(_restrict_by_loop(merged, lo, hi)))
            assert repr(st.band_measure(bands)) == repr(float(sum(b - a for a, b in merged)))
        other = merge_intervals([(x, x + 0.5) for x in rng.uniform(-5, 5, 3).tolist()])
        sums = [(a1 + a2, b1 + b2) for a1, b1 in merged for a2, b2 in other]
        assert repr(st.band_sum(merged, other).bands) == repr(_merge_by_loop(sums))
        if merged:
            assert st.hausdorff_distance(merged, other) == st.hausdorff_distance(
                BandSet(merged), np.array(other))
        # band_sum builds its BandSet from the merged edge array, with no tuple step
        assert st.band_sum(merged, other) == BandSet(merge_intervals(sums))
    # the measure adds band by band; numpy's pairwise sum rounds differently here
    bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 1.0), 10).bands
    widths = np.diff(np.array(bands)).ravel()
    assert st.band_measure(bands) == float(sum(b - a for a, b in bands)) != float(widths.sum())


def test_gaps_with_labels_refuses_negative_m_max():
    table = IdsTable((0.0, 1.0), (0.5, 0.5), 10)
    two = BandSet(((0.0, 1.0), (2.0, 3.0)), level=1)
    with pytest.raises(ValueError, match="m_max"):
        st.gaps_with_labels(two, table, 0.618, m_max=-1)
    assert len(st.gaps_with_labels(two, table, 0.618, m_max=0)) == 1


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_gaps_with_labels_refuses_negative_or_nan_tol(tol):
    table = IdsTable((0.0, 1.0), (0.5, 0.5), 10)
    two = BandSet(((0.0, 1.0), (2.0, 3.0)), level=1)
    with pytest.raises(ValueError, match="need tol >= 0"):
        st.gaps_with_labels(two, table, 0.618, tol=tol)
    for ok in (0.0, math.inf):
        assert len(st.gaps_with_labels(two, table, 0.618, tol=ok)) == 1


def test_combinatorial_labels_roundtrip():
    params = st.JacobiParams(1.0, 2.0)
    b8 = st.floquet_bands(st.FIBONACCI, params, 8)
    assert b8.band_count == 55
    for j in range(1, 55):
        m = combinatorial_gap_label(st.FIBONACCI, b8, j)
        assert abs(m) <= 34
        assert gap_index_for_label(st.FIBONACCI, b8, m) == j
    # the period letter (1) is not the fixed point's (0): q_k counts s^k(1)
    s = parse_substitution("0->1;1->01")
    for k, q_k in ((5, 13), (6, 21)):
        b = st.floquet_bands(s, params, k)
        assert b.band_count == q_k and periodic_word_length(s, k) == q_k
        for j in range(1, q_k):
            assert gap_index_for_label(s, b, combinatorial_gap_label(s, b, j)) == j


def test_gaps_with_labels_synthetic():
    table = IdsTable((0.0, 1.0), (0.5, 0.5), 10)  # 0.5 at every energy
    single = BandSet(((0.0, 1.0),), level=1)
    assert st.gaps_with_labels(single, table, 0.618, m_max=5, tol=0.1) == []
    two = BandSet(((0.0, 1.0), (2.0, 3.0)), level=1)
    gaps = st.gaps_with_labels(two, table, 0.618, m_max=5, tol=0.0)
    assert len(gaps) == 1 and gaps[0].label_m is None  # tol=0 matches nothing


def _labels_by_min(bands, ids_table, alpha, m_max=34, tol=1e-3):
    """The per-gap Python min over every candidate label that one searchsorted replaced."""
    labels = []
    for m in range(-m_max, m_max + 1):
        labels.append((math.fmod(m * alpha, 1.0) % 1.0, m))
    out = []
    for g_lo, g_hi in bands.gaps():
        mid = 0.5 * (g_lo + g_hi)
        value = float(ids_table.value_at(mid))
        best = min(labels, key=lambda lm: (abs(lm[0] - value), abs(lm[1])))
        if abs(best[0] - value) <= tol:
            out.append(st.spectrum.Gap(g_lo, g_hi, value, best[0], best[1]))
        else:
            out.append(st.spectrum.Gap(g_lo, g_hi, value))
    return out


@pytest.mark.parametrize("alpha", [(5 ** 0.5 - 1) / 2, 0.5, 0.25, 1.0 / 3.0, 0.0, 0.7071])
@pytest.mark.parametrize("m_max", [0, 1, 5, 34])
def test_gap_labels_equal_the_per_gap_min(alpha, m_max):
    rng = np.random.default_rng(m_max)
    lam = sorted({math.fmod(m * alpha, 1.0) % 1.0 for m in range(-m_max, m_max + 1)})
    # sorted, so that the values form a (nondecreasing) IDS table
    values = np.sort(np.concatenate([rng.uniform(-0.2, 1.2, 300), lam,
                                     [0.5 * (a + b) for a, b in zip(lam, lam[1:])],  # exact ties
                                     [-1.0, 2.0, 0.0, 1.0]])).tolist()
    bands = BandSet(tuple((2.0 * i, 2.0 * i + 1.0) for i in range(len(values) + 1)), level=1)
    # gap i is (2i + 1, 2i + 2), and its midpoint is the grid point of values[i]
    table = IdsTable(tuple(2.0 * i + 1.5 for i in range(len(values))), tuple(values), 10)
    for tol in (0.0, 1e-3, 0.05, 1.0):
        got = st.gaps_with_labels(bands, table, alpha, m_max=m_max, tol=tol)
        assert repr(got) == repr(_labels_by_min(bands, table, alpha, m_max=m_max, tol=tol))


@pytest.mark.parametrize("text, p, q, k", [("0->01;1->0", 1.1, 0.3, 8),
                                           ("0->001;1->0", 1.2, 0.7, 6)])
def test_gap_labels_equal_the_value_at_loop(text, p, q, k):
    # one searchsorted over the table's grid gives every gap its value_at step
    s, params, L = parse_substitution(text), st.JacobiParams(p, q), 987
    bands = st.floquet_bands(s, params, k)
    alpha = st.rotation_number(s).alpha
    mids = [0.5 * (a + b) for a, b in bands.gaps()]
    # every third midpoint is a grid point, the last is the top one, and the
    # first lies below the grid, where the lookup clamps to the first value
    grid = np.unique(np.concatenate([np.linspace(mids[1], mids[-1], 301), mids[1:-1:3]]))
    assert mids[0] < grid[0] and mids[-1] == grid[-1]
    table = st.ids(s, params, L, grid)
    for tol in (0.0, 2.0 / L, 1.0):
        got = st.gaps_with_labels(bands, table, alpha, tol=tol)
        assert repr(got) == repr(_labels_by_min(bands, table, alpha, tol=tol))


def test_dynamical_probe_examples():
    s = st.FIBONACCI
    params = st.JacobiParams(1.0, 0.0)
    for E in (-1.5, 0.0, 1.9):
        v = st.dynamical_spectrum_probe(s, params, [E], max_steps=80)[0]
        assert v.kind == "bounded-so-far"
    params = st.JacobiParams(1.0, 2.0)
    lo, hi = default_energy_range(params)
    v = st.dynamical_spectrum_probe(s, params, [hi + 1.0], max_steps=60)[0]
    assert v.kind == "escaped"


def test_probe_consistency_with_bands():
    s = st.FIBONACCI
    params = st.JacobiParams(1.0, 2.0)
    b = st.floquet_bands(s, params, 8)
    rng = np.random.default_rng(3)
    widths = np.array([hi - lo for lo, hi in b.bands])
    for _ in range(20):
        i = rng.choice(len(b.bands), p=widths / widths.sum())
        lo, hi = b.bands[i]
        E = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
        v = st.dynamical_spectrum_probe(s, params, [E], max_steps=12)[0]
        assert v.kind == "bounded-so-far"
    wide = [g for g in b.gaps() if g[1] - g[0] > 5e-2]
    for lo, hi in wide[:20]:
        E = 0.5 * (lo + hi)
        v = st.dynamical_spectrum_probe(s, params, [E], max_steps=13)[0]
        assert v.kind == "escaped"


# -- the Dirichlet-bracketed solver --------------------------------------------

def half_trace_mp(word, params, E, dps=60):
    """x(E) by a 60-digit transfer product over one period, successor cyclic."""
    with mpmath.workdps(dps):
        E = mpmath.mpf(E)
        m00, m01, m10, m11 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for i, c in enumerate(word):
            nxt = mpmath.mpf(params.hopping(word[(i + 1) % len(word)]))
            a, b = (E - params.potential(c)) / nxt, -1 / nxt   # T = [[a, b], [nxt, 0]]
            m00, m01, m10, m11 = a * m00 + b * m10, a * m01 + b * m11, nxt * m00, nxt * m01
        return (m00 + m11) / 2


def assert_edges_cross(word, params, bands, indices):
    """|x| <= 1 just inside and > 1 just outside both edges of each band.

    The comparisons run inside the 60-digit context: ``abs`` rounds to the
    current precision, so outside it 1 + 7e-17 would read as 1.
    """
    tol = bands.edge_tol
    for i in indices:
        a, b = bands.bands[i]
        mid = 0.5 * (a + b)
        for inside, outside in ((min(a + tol, mid), a - tol), (max(b - tol, mid), b + tol)):
            with mpmath.workdps(60):
                assert abs(half_trace_mp(word, params, inside)) <= 1
                assert abs(half_trace_mp(word, params, outside)) > 1


@pytest.mark.parametrize("text, p, q, k, tol, count", [
    ("0->001;1->0", 1.5, 1.0, 10, None, 8119),    # three 4e-6-wide bands were dropped
    ("0->01;1->0", 1.0, 0.1, 16, 1e-13, 2584),    # [-0.716193, -0.716109] was dropped
    ("0->001;1->0", 1.0, 0.5287, 7, None, 577),   # 578 bands were reported, and raised
    ("0->100;1->10", 1.0, 2.0, 6, None, 377),     # 267 bands were reported
    ("0->01;1->0", 1.0, 2.0, 20, None, 17711),    # every lane searched, no sterf
])
def test_every_band_found(text, p, q, k, tol, count):
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    bands = st.floquet_bands(s, params, k, tol=tol)
    assert bands.band_count == count
    assert bands.closed_gaps == 0
    if count > spectrum_mod.STERF_MAX_Q:
        assert_edges_cross(periodic_word(s, k), params, bands, [0, count // 2, count - 1])


@pytest.mark.xfail(raises=BandCountError, strict=True,
                   reason="Dirichlet points out of order: lifted count or double x_k misread")
@pytest.mark.parametrize("text, p, q, k, tols, bands, closed", [
    ("0->001;1->0", 0.2435, 24.345, 8, {}, 188, 1205),
    ("0->001;1->0", 76.2516, 8.156, 8, {}, 141, 1252),
    ("0->01;1->0", 1.0, 24.0, 18, {"tol": 3e-14, "merge_tol": 2e-13}, 3094, 3671),
])
def test_known_raising_levels_solve(text, p, q, k, tols, bands, closed):
    # counts from the solver before the shared-probe search
    got = st.floquet_bands(parse_substitution(text), st.JacobiParams(p, q), k, **tols)
    assert (got.band_count, got.closed_gaps) == (bands, closed)


@pytest.mark.xfail(strict=True, reason="double x_k reads |x| - 1 of 1e-12 to 6e-12 at the "
                                       "midpoints of gaps that are closed at 60 digits")
@pytest.mark.parametrize("text, k", [("0->001;1->0", 7), ("0->001;1->0", 8),
                                     ("0->01;1->0", 15)])
def test_free_case_is_one_band(text, k):
    s = parse_substitution(text)
    bands = st.floquet_bands(s, st.JacobiParams(1.0, 0.0), k)
    assert (bands.band_count, bands.closed_gaps) == (1, periodic_word_length(s, k) - 1)


@given(st_h.sampled_from(["0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01"]),
       st_h.floats(0.5, 2.5), st_h.booleans(), st_h.floats(-4.0, 4.0),
       st_h.integers(0, 8), st_h.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
@example("0->01;1->0", 0.99999, False, 0.0, 1, 0)   # x = -1 - 7e-17 outside the lower edge
def test_bands_plus_closed_gaps_is_period_length(text, p, negative, q, k, pick):
    s = parse_substitution(text)
    params = st.JacobiParams(-p if negative else p, q)
    bands = st.floquet_bands(s, params, k)
    word = periodic_word(s, k)
    assert bands.band_count + bands.closed_gaps == len(word)
    assert_edges_cross(word, params, bands, [pick % bands.band_count])


def trace_map_substitutions(max_image=4):
    """Every substitution with images of at most max_image letters that has a recipe."""
    words = ["".join(w) for n in range(1, max_image + 1) for w in itertools.product("01", repeat=n)]
    out = []
    for a, b in itertools.product(words, repeat=2):
        try:
            st.recipe_from_substitution(Substitution(a, b))
        except st.SubstitutionError:
            continue
        out.append("0->%s;1->%s" % (a, b))
    return out


@pytest.mark.parametrize("text", trace_map_substitutions())
def test_periodic_word_is_the_solved_period(text):
    # the word periodic_word builds is the one whose x_k the solver solves
    s = parse_substitution(text)
    recipe = st.recipe_from_substitution(s)
    rng = np.random.default_rng(sum(map(ord, text)))
    for k in range(7):
        word = periodic_word(s, k)
        bands = st.floquet_bands(s, st.JacobiParams(1.0, 2.0), k)
        assert periodic_word_length(s, k) == len(word) == bands.band_count + bands.closed_gaps
        # word_transfer is an oracle for moderate hopping only; band and gap
        # midpoints keep x_k below SATURATION
        params = st.JacobiParams(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                                 rng.uniform(-2.0, 2.0))
        solved = st.floquet_bands(s, params, k)
        mids = [0.5 * (a + b) for a, b in solved.bands + tuple(solved.gaps())]
        E = rng.choice(mids, size=min(4, len(mids)), replace=False)
        x = half_trace_grid(recipe, params, E, k)
        for e, x_k in zip(E.tolist(), x.tolist()):
            ht = half_trace(word_transfer(params, word, e))
            assert abs(ht - x_k) <= 1e-9 * max(1.0, abs(ht)), (k, e)


def test_half_trace_keeps_its_sign_deep_in_gaps():
    # at k = 20 the true x_k at the range ends overflows a double
    recipe = st.recipe_from_substitution(st.FIBONACCI)
    word = periodic_word(st.FIBONACCI, 20)
    for p in (1.0, -1.3):
        params = st.JacobiParams(p, 2.0)
        x = half_trace_grid(recipe, params, np.array(default_energy_range(params)), 20)
        lead = np.sign(p) ** word.count("1")
        assert np.all(np.isfinite(x))
        assert np.sign(x).tolist() == [lead * (-1.0) ** len(word), lead]


def half_trace_loop(recipe, params, E, k):
    """The hand-written loop half_trace_grid ran before the shared kernel."""
    x, y, z = initial_conditions_grid(params, E)
    if recipe.swapped_start:
        y, z = z, y
    for a in recipe.period * k:
        y, z = z, y
        for _ in range(a):
            x, y = np.clip(2.0 * x * z - y, -SATURATION, SATURATION), x
    return y


@pytest.mark.parametrize("text, k", [("0->01;1->0", 20), ("0->001;1->0", 12),
                                     ("0->1;1->10", 18), ("0->1;1->01", 18)])
def test_half_trace_grid_bitwise_equals_loop(text, k):
    s = parse_substitution(text)
    recipe = st.recipe_from_substitution(s)
    saturated = 0
    # E = +-1e200 start the orbit at x = inf (p > 0) or -inf (p < 0), E = +-inf and NaN at NaN
    non_finite = [-np.inf, -1e200, 1e200, np.inf, np.nan]
    starts = set()
    for params in (st.JacobiParams(1.0, 2.0), st.JacobiParams(-1.3, 0.7)):
        lo, hi = default_energy_range(params)
        E = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 4097), non_finite])
        with np.errstate(over="ignore", invalid="ignore"):
            starts.update(map(repr, initial_conditions_grid(params, E)[0][-5:].tolist()))
            for level in (0, 1, k // 2, k):
                got = half_trace_grid(recipe, params, E, level)
                assert got.tobytes() == half_trace_loop(recipe, params, E, level).tobytes()
                assert half_trace_grid(recipe, params, E[2048], level) == got[2048]  # scalar E
                saturated += int(np.sum(np.abs(got) == SATURATION))
        assert np.isnan(got[-5:]).any()
    assert saturated > 0 and {"inf", "-inf", "nan"} <= starts


@pytest.mark.parametrize("text", ["0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01"])
def test_half_trace_grid_overflows_as_the_loop_at_extreme_energies(text):
    # lanes overflow, saturate and turn NaN step by step as in the loop; full-trace
    # coordinates (X = 2x, X' = XZ - Y) turn NaN at |E| >= 1e308 where the loop saturates
    recipe = st.recipe_from_substitution(parse_substitution(text))
    big = np.array([1e308, 1.7e308, 1.3e154, np.finfo(float).max])
    E = np.concatenate([-big, big])
    for p in (0.5, -0.5):
        params = st.JacobiParams(p, 0.7)
        with np.errstate(over="ignore", invalid="ignore"):
            for level in (0, 1, 3, 8):
                got = half_trace_grid(recipe, params, E, level)
                assert got.tobytes() == half_trace_loop(recipe, params, E, level).tobytes()
                if level >= 3:
                    assert np.all(np.abs(got[[2, 6]]) == SATURATION)  # E = +-1.3e154


def test_free_case_closes_every_gap():
    for s, k in ((st.FIBONACCI, 7), (METAL, 5)):
        bands = st.floquet_bands(s, st.JacobiParams(1.0, 0.0), k)
        assert bands.band_count == 1
        assert bands.closed_gaps == len(periodic_word(s, k)) - 1


def test_strong_coupling_edges_match_mpmath():
    params = st.JacobiParams(1.0, 24.0)
    bands = st.floquet_bands(st.FIBONACCI, params, 12, tol=3e-14, merge_tol=2e-13)
    assert bands.band_count == 377
    # palindromic truncations put Dirichlet eigenvalues on band edges: check
    # those bands, and every tenth band
    word = periodic_word(st.FIBONACCI, 12)
    spec = st.dirichlet_restriction(params, word[1:])
    mu = scipy.linalg.eigvalsh_tridiagonal(np.array(spec.diag), np.array(spec.offdiag[1:]))
    edges = np.array(bands.bands)
    near = np.min(np.abs(edges[:, :, None] - mu[None, None, :]), axis=(1, 2)) < 1e-13
    picks = sorted(set(np.flatnonzero(near)) | set(range(0, 377, 10)))
    assert len(picks) > 40
    assert_edges_cross(word, params, bands, picks)


def _misplace(monkeypatch, i, j):
    """Make the Dirichlet eigensolver return mu[i] = mu[j] (0-based, interior points).

    Returns the list of seeds it returned, one per call.
    """
    exact, calls = spectrum_mod._sterf, []

    def misplaced(d, e):
        mu = exact(d, e)
        mu[i] = mu[j]
        calls.append(mu)
        return mu

    monkeypatch.setattr(spectrum_mod, "_sterf", misplaced)
    return calls


def test_misplaced_dirichlet_eigenvalue_is_recomputed(monkeypatch):
    params = st.JacobiParams(1.0, 2.0)
    expected = st.floquet_bands(st.FIBONACCI, params, 8)
    calls = _misplace(monkeypatch, 20, 21)   # into the neighbouring gap: x_k has the wrong sign
    got = st.floquet_bands(st.FIBONACCI, params, 8)
    assert len(calls) == 1 and np.isfinite(calls[0]).all()
    assert got.band_count == 55
    assert np.allclose(got.bands, expected.bands, rtol=0.0, atol=got.edge_tol)


def test_dirichlet_eigenvalue_two_gaps_off_is_recomputed(monkeypatch):
    # two gaps up x_k has the right sign again: only the order and the count see it
    params = st.JacobiParams(1.0, 2.0)
    expected = st.floquet_bands(st.FIBONACCI, params, 8)
    calls = _misplace(monkeypatch, 20, 22)
    got = st.floquet_bands(st.FIBONACCI, params, 8)
    assert len(calls) == 1 and np.isfinite(calls[0]).all()
    assert (got.band_count, got.closed_gaps) == (expected.band_count, expected.closed_gaps)
    assert np.allclose(got.bands, expected.bands, rtol=0.0, atol=got.edge_tol)


def _window_count(*eigenvalues):
    """Dirichlet count (eigenvalues <= E) of a window with the given eigenvalues."""
    nu = np.array(eigenvalues)
    return lambda E: np.sum(np.asarray(E)[..., None] >= nu, axis=-1)


def test_repair_closes_a_touching_gap():
    # band on both sides of mu_1 = 0, where the window's eigenvalue sits
    mu, sign = np.array([-2.0, 0.0, 2.0]), np.array([-1.0, 1.0, -1.0])
    got, closed = spectrum_mod._certify(lambda E: 1.0 - 1e-9 - E * E, _window_count(0.0),
                                        mu, sign, 1e-12)
    assert closed.tolist() == [True] and abs(got[1]) <= 1e-12


def test_repair_finds_a_gap_just_right_of_mu():
    # gap (1e-13, 3e-13) just right of mu_1, with the window's eigenvalue in it
    mu, sign = np.array([-2.0, 0.0, 2.0]), np.array([-1.0, 1.0, -1.0])
    x = lambda E: 1.0 + 1e18 * (E - 1e-13) * (3e-13 - E)
    got, closed = spectrum_mod._certify(x, _window_count(2e-13), mu, sign, 1e-14)
    assert closed.tolist() == [False] and x(got[1]) >= 1.0 and 1e-13 <= got[1] <= 3e-13


# q = 3: gap 1 is (-0.92, -0.88), gap 2 (0.9, 1.1) and gap 3 (1.6, 2]; x_k >= 1 in
# gaps 1 and 3, so the sign test alone cannot tell them apart
_KNOTS = ([-2.0, -1.5, -0.92, -0.9, -0.88, 0.9, 1.0, 1.1, 1.6, 2.0],
          [-3.0, -1.0, 1.0, 1.5, 1.0, -1.0, -1.5, -1.0, 1.0, 3.0])


def _three_gap_x(E):
    return np.interp(E, *_KNOTS)


def test_repair_certifies_the_gap_by_count_not_by_sign():
    # both points in bands and out of order; mu_2's count does not bound lane 1,
    # so its search spans the range, gap 3 included
    mu, sign = np.array([-2.0, 0.0, -1.0, 2.0]), np.array([-1.0, 1.0, -1.0, 1.0])
    got, closed = spectrum_mod._certify(_three_gap_x, _window_count(-0.9, 1.0), mu, sign, 1e-12)
    assert closed.tolist() == [False, False]
    assert -0.92 <= got[1] <= -0.88 and 0.9 <= got[2] <= 1.1


def test_unordered_points_after_the_repair_raise():
    # a count that falls again after 1.5, as counts can inside unresolved
    # clusters, certifies lane 1 in gap 3 (1.75) and lane 2 in gap 2 (1.0)
    mu, sign = np.array([-2.0, 0.0, -1.0, 2.0]), np.array([-1.0, 1.0, -1.0, 1.0])

    def count(E):
        E = np.asarray(E)
        return np.where(E >= 1.9, 2, np.where((E >= 0.5) & (E < 1.5), 1, 0))

    with pytest.raises(BandCountError, match="out of order"):
        spectrum_mod._certify(_three_gap_x, count, mu, sign, 1e-12)


def test_kept_point_out_of_order_with_a_searched_one_is_searched():
    # mu_2 = 1.0 passes both tests against the sterf points; the count puts
    # lane 1's eigenvalue in gap 3 (1.8), above it, so lane 2 is searched too
    mu, sign = np.array([-2.0, 0.0, 1.0, 2.0]), np.array([-1.0, 1.0, -1.0, 1.0])
    got, closed = spectrum_mod._certify(_three_gap_x, _window_count(1.8, 1.9), mu, sign, 1e-12)
    assert got[1] == 1.75 and closed.tolist() == [False, True] and abs(got[2] - 1.9) <= 1e-12


@pytest.mark.parametrize("V, k", [(24.0, 12), (33.949, 11)])
def test_strong_coupling_repair_needs_no_sturm_loop(monkeypatch, V, k):
    params = st.JacobiParams(1.0, V)
    expected = st.floquet_bands(st.FIBONACCI, params, k)
    searched = []
    search = spectrum_mod._search
    monkeypatch.setattr(spectrum_mod, "_search", lambda *a: searched.append(a) or search(*a))

    def sturm_loop(*args):
        raise AssertionError("the band solver ran the Sturm loop")

    monkeypatch.setattr(st.jacobi, "eigen_count_below_grid", sturm_loop)
    assert st.floquet_bands(st.FIBONACCI, params, k) == expected
    assert searched   # the case needs a repair


def test_closed_lanes_order_as_the_counts_do():
    # at this hopping Dirichlet eigenvalues of neighbouring closed gaps lie
    # 1e-13 apart, inside the 2.6e-9 merge tolerance: a closed lane's point is
    # refined to its eigenvalue, since one left anywhere in its merge_tol
    # bracket fell below a kept sterf point
    bands = st.floquet_bands(parse_substitution("0->100;1->10"), st.JacobiParams(58.8, -8.58), 7)
    assert (bands.band_count, bands.closed_gaps) == (207, 780)


def test_gap_beyond_a_probe_on_its_edge_is_found():
    # mu_1 = 1e-14 lies on band 1's upper edge (x_k just below 1) with count 1,
    # and as lane 2's neighbour it ends lane 1's interval there; gap 1 lies
    # wholly beyond it, so only the probe past the interval's end finds it
    knots = ([-2.0, -1.0, 1e-13, 0.25, 0.5, 0.7, 0.95, 1.2, 1.5, 2.0],
             [-3.0, -1.0, 1.0, 3.0, 1.0, -1.0, -3.0, -1.0, 1.0, 3.0])
    x = lambda E: np.interp(E, *knots)
    mu, sign = np.array([-2.0, 1e-14, 0.6, 2.0]), np.array([-1.0, 1.0, -1.0, 1.0])
    got, closed = spectrum_mod._certify(x, _window_count(0.0, 1.0), mu, sign, 1e-12)
    assert closed.tolist() == [False, False]
    assert 1e-13 < got[1] < 0.5 and 0.7 < got[2] < 1.2


def _recording(count):
    """count, and the list of the energies it was called on."""
    counted = []

    def recorded(E):
        counted.append(np.array(E))
        return count(E)

    return recorded, counted


def test_single_step_lane_ends_by_sign_uncounted():
    # q = 2, gap 1 is (-0.5, 1.2), where x_k <= -1, and the window's eigenvalue
    # is 0.2.  The range ends count 0 and 1, so (-2, 2) holds lane 1 alone;
    # of its probes -1, 0 and 1 the last two pass the sign test, and the lane
    # ends at the lower one with no probe counted
    x = lambda E: np.interp(E, [-2.0, -1.5, -0.5, 0.0, 1.2, 1.6, 2.0],
                            [3.0, 1.0, -1.0, -2.0, -1.0, 1.0, 3.0])
    count, counted = _recording(_window_count(0.2))
    mu, sign = np.array([-2.0, np.nan, 2.0]), np.array([1.0, -1.0, 1.0])
    got, closed = spectrum_mod._certify(x, count, mu, sign, 1e-12)
    assert got[1] == 0.0 and closed.tolist() == [False]
    assert np.concatenate(counted).tolist() == [-2.0, 2.0]


def test_sign_test_leaves_a_closed_lane_alone():
    # x_k >= 1 only within 2e-14 of the window's eigenvalue 0.1, inside the
    # 1e-12 merge tolerance: no probe lands there before the lane closes, and
    # the probes that land there later are counted, not taken as its point,
    # which is refined on the count to the eigenvalue
    nu = 0.1
    x = lambda E: np.where(np.abs(E - nu) < 2e-14, 2.0, 1.0 - 1e-9 - (E - nu) ** 2)
    count, counted = _recording(_window_count(nu))
    mu, sign = np.array([-2.0, np.nan, 2.0]), np.array([-1.0, 1.0, -1.0])
    got, closed = spectrum_mod._certify(x, count, mu, sign, 1e-12)
    assert closed.tolist() == [True] and abs(got[1] - nu) <= 1e-16
    counted = np.concatenate(counted)
    assert np.any(x(counted[np.abs(counted - nu) < 2e-14]) >= 1.0)


@pytest.mark.parametrize("text, p, q, k, kw", [
    ("0->001;1->0", 1.5, 1.0, 10, {}),
    ("0->01;1->0", 1.0, 24.0, 15, dict(tol=3e-14, merge_tol=2e-13)),
])
def test_lanes_ended_by_sign_hold_their_sturm_count(monkeypatch, text, p, q, k, kw):
    # a lane ended uncounted has its point in gap j: j-1 or j eigenvalues of
    # the window w[:-1] lie below it, by the Sturm loop, and sign_j x_k >= 1
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    search, ended = spectrum_mod._search, []

    def recorded(x, count, mu, sign, j, merge_tol):
        count, counted = _recording(count)
        point, closed = search(x, count, mu, sign, j, merge_tol)
        uncounted = ~closed & ~np.isin(point, np.concatenate(counted))
        ended.append((x, sign, j[uncounted], point[uncounted]))
        return point, closed

    monkeypatch.setattr(spectrum_mod, "_search", recorded)
    st.floquet_bands(s, params, k, **kw)
    window = st.dirichlet_restriction(params, periodic_word(s, k)[:-1])
    for x, sign, j, point in ended:
        c = eigen_count_below_grid(window, point)
        assert np.all((c == j - 1) | (c == j))
        assert np.all(sign[j] * x(point) >= 1.0)
    assert sum(j.size for _, _, j, _ in ended) > 100


def test_miscounted_probe_ends_no_lane_outside_its_interval():
    # the lifted count reads 418 at E = -0.9806225248199232, where the window
    # has 417 eigenvalues below; a probe there passes lane 419's certificate,
    # but lane 419 lies in another interval, and ending it there would put
    # its point below lane 418's
    bands = st.floquet_bands(parse_substitution("0->0010;1->010"),
                             st.JacobiParams(-0.237, -28.019), 5)
    assert (bands.band_count, bands.closed_gaps) == (222, 558)


def test_lane_no_interval_holds_raises():
    # the count never reaches 2, so no interval ever holds lane 2; its point
    # would stay NaN, which the order check cannot see
    mu, sign = np.array([-2.0, 0.0, -1.0, 2.0]), np.array([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(BandCountError, match="1 Dirichlet lanes left without a point"):
        spectrum_mod._certify(_three_gap_x, _window_count(-0.9), mu, sign, 1e-12)


CROSSOVER_CASES = [
    ("0->01;1->0", 1.1, 0.3, 8, {}),
    ("0->01;1->0", 1.0, 24.0, 12, dict(tol=3e-14, merge_tol=2e-13)),
    ("0->1;1->10", 1.0, 2.0, 14, {}),
    ("0->001;1->0", 1.087, 1.854, 9, {}),
    ("0->100;1->10", 58.8, -8.58, 7, {}),
    ("0->001;1->0", 1.5, 1.0, 10, {}),
]


@pytest.mark.parametrize("text, p, q, k, kw", CROSSOVER_CASES)
def test_search_agrees_with_sterf_across_the_crossover(monkeypatch, text, p, q, k, kw):
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    search, searched = spectrum_mod._search, []

    def recorded(x, count, mu, sign, j, merge_tol):
        point, closed = search(x, count, mu, sign, j, merge_tol)
        searched.append((x, count, sign, j[~closed], point[~closed]))
        return point, closed

    monkeypatch.setattr(spectrum_mod, "_search", recorded)
    solved = {}
    for crossover in (10 ** 9, 0):   # sterf seeds every level / every lane is searched
        monkeypatch.setattr(spectrum_mod, "STERF_MAX_Q", crossover)
        solved[crossover] = st.floquet_bands(s, params, k, **kw)
    assert searched
    for x, count, sign, j, point in searched:   # the certificate of every point found
        c = count(point)
        assert np.all((c == j - 1) | (c == j))
        assert np.all(sign[j] * x(point) >= 1.0)
    sterf, lifted = solved[10 ** 9], solved[0]
    assert (lifted.band_count, lifted.closed_gaps) == (sterf.band_count, sterf.closed_gaps)
    assert np.allclose(lifted.bands, sterf.bands, rtol=0.0, atol=sterf.edge_tol)


@pytest.mark.parametrize("text, p, q, k, kw", CROSSOVER_CASES)
def test_solve_without_dsterf_searches_every_lane(monkeypatch, text, p, q, k, kw):
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    monkeypatch.setattr(spectrum_mod, "STERF_MAX_Q", 10 ** 9)   # every level is seeded
    seeded = st.floquet_bands(s, params, k, **kw)
    loaded = []
    monkeypatch.setattr(spectrum_mod, "_dsterf", lambda: loaded.append(None))   # no library
    unseeded = st.floquet_bands(s, params, k, **kw)
    assert loaded
    assert (unseeded.band_count, unseeded.closed_gaps) == (seeded.band_count, seeded.closed_gaps)
    assert np.allclose(unseeded.bands, seeded.bands, rtol=0.0, atol=seeded.edge_tol)


@pytest.mark.parametrize("text, p, q, k", [
    ("0->01;1->0", 1.0, 2.0, 14),            # q = 987
    ("0->001;1->0", 1.087, 1.854, 8),        # q = 1393
    ("0->01;1->0", 1.0, 24.0, 12),           # q = 377
    ("0->01;1->0", 1.0, 24.0, 14),           # q = 987
    ("0->100;1->10", -0.33, 19.7, 7),        # q = 987
    ("0->1;1->10", 1.0, 2.0, 14),            # q = 987
])
def test_sterf_equals_scipy_sterf(text, p, q, k):
    assert spectrum_mod._dsterf() is not None, "numpy's OpenBLAS exports no dsterf"
    word = periodic_word(parse_substitution(text), k)
    assert 377 <= len(word) <= spectrum_mod.STERF_MAX_Q
    spec = st.dirichlet_restriction(st.JacobiParams(p, q), word[1:])
    d, e = np.array(spec.diag), np.array(spec.offdiag[1:])
    got = spectrum_mod._sterf(d, e)
    expected = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    assert got.tobytes() == expected.tobytes()
    assert d.tobytes() == np.array(spec.diag).tobytes()   # the inputs are copied, not overwritten


def test_deep_solve_never_imports_scipy(tmp_path):
    # above the crossover every lane is searched on the lifted count; at or
    # below it the points are seeded by numpy's own dsterf
    code = ("import contextlib, io, sys\n"
            "from sturmtrace import FIBONACCI, JacobiParams, floquet_bands, spectrum\n"
            "from sturmtrace.cli import main\n"
            "bands = floquet_bands(FIBONACCI, JacobiParams(1.0, 2.0), 16)\n"
            "print(bands.band_count > spectrum.STERF_MAX_Q, 'scipy' in sys.modules)\n"
            "bands = floquet_bands(FIBONACCI, JacobiParams(1.0, 2.0), 14)\n"
            "print(bands.band_count <= spectrum.STERF_MAX_Q, 'scipy' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['spectrum', '0->01;1->0', '--p', '1', '--q', '2',\n"
            "                   '--level', '10', '--out-dir', sys.argv[1]])\n"
            "print(status == 0, 'scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"] * 3


def test_range_not_enclosing_spectrum_raises(monkeypatch):
    monkeypatch.setattr(spectrum_mod, "default_energy_range", lambda params: (-1.0, 1.0))
    with pytest.raises(BandCountError):
        st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 4)


def test_energy_window_clips_the_level():
    params = st.JacobiParams(1.0, 2.0)
    full = st.floquet_bands(st.FIBONACCI, params, 6)
    lo, hi = -1.0, 2.5
    window = st.floquet_bands(st.FIBONACCI, params, 6, e_range=(lo, hi), tol=full.edge_tol,
                              merge_tol=1e-11 * (full.hull()[1] - full.hull()[0]))
    clipped = [(max(a, lo), min(b, hi)) for a, b in full.bands if b >= lo and a <= hi]
    assert np.allclose(window.bands, clipped, rtol=0.0, atol=full.edge_tol)


def test_word_length_cap_checked_before_expansion():
    # |s^35(0)| = 24157817 letters: refused before the word is built
    with pytest.raises(st.ResourceLimitError):
        st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 35)
    with pytest.raises(ValueError):
        st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), -1)


def test_negative_merge_tol_raises():
    # an infinite merge_tol would merge every gap: 1 band and 7 closed gaps here
    for merge_tol in (-1e-12, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="merge_tol must be finite and >= 0"):
            st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 4, merge_tol=merge_tol)
    # finite values solve; at merge_tol = 0 only a gap that the x_k test closes is merged
    for merge_tol, solved in ((0.0, (8, 0)), (1e-3, (8, 0)), (1.0, (2, 6))):
        bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 4, merge_tol=merge_tol)
        assert (bands.band_count, bands.closed_gaps) == solved


@pytest.mark.parametrize("tol", [-1e-12, np.nan, np.inf, -np.inf])
def test_bad_tol_raises(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 0.0), 3, tol=tol)


def test_zero_tol_bisects_to_float_resolution():
    # the free chain's level-3 bands tile [-2, 2]; tol = 0 halves each bracket
    # until its ends meet or are adjacent floats
    bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 0.0), 3, tol=0.0)
    assert bands.edge_tol == 0.0
    assert np.allclose(bands.hull(), (-2.0, 2.0), rtol=0.0, atol=1e-15)


# sha256 of repr((bands, closed_gaps)): a faster search must find every band
# set float for float
@pytest.mark.parametrize("text, p, q, k, kw, digest", [
    ("0->001;1->0", 1.5, 1.0, 10, {},
     "6199f2df33e405d85e27ffb5fcffca1311bc551feaf52b586a531bfc8628560e"),
    ("0->01;1->0", 1.0, 0.1, 16, dict(tol=1e-13),
     "22c02e9abad11b3a12096e93291a455e058867ea593e148ec96602d5327d30f2"),
    ("0->01;1->0", 1.0, 24.0, 16, dict(tol=3e-14, merge_tol=2e-13),
     "d11eae254d520400041393aa7551ce5f0d036a745a016d9397ce1656d5be406b"),
    ("0->100;1->10", -0.33, 19.7, 9, {},
     "73403bc6f2ebd0c8bb1a58dcc265beb644c0e6b6e26967a17b4442e3f2b74e42"),
    ("0->1;1->10", 1.0, 2.1, 16, {},
     "36fb049cae4888f1df98eb8572d8a8812cb244fa0f0c50d4ec3728e7182e4f29"),
])
def test_deep_band_sets_are_pinned(text, p, q, k, kw, digest):
    bands = st.floquet_bands(parse_substitution(text), st.JacobiParams(p, q), k, **kw)
    assert hashlib.sha256(repr((bands.bands, bands.closed_gaps)).encode()).hexdigest() == digest
