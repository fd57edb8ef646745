import bisect
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import sturmtrace as st
import sturmtrace.dos as dos_mod
from sturmtrace.dos import (DosSummary, IdsTable, _grid_quantiles, dyadic_ladder, ids,
                            ids_counter, ids_scaling_exponent)
from sturmtrace.jacobi import dirichlet_restriction, eigen_count_below_grid
from sturmtrace.spectrum import default_energy_range
from sturmtrace.substitution import (FIBONACCI, WORD_LENGTH_CAP, Substitution,
                                     UnsupportedSubstitutionError, fixed_point_prefix,
                                     parse_substitution)

ALL_ZERO = Substitution("00", "0")  # free chain generator: fixed point 000...


def test_ids_free_chain_half_filling():
    params = st.JacobiParams(1.0, 0.0)
    L = 200
    counter = ids_counter(ALL_ZERO, params, L)
    assert abs(counter(0.0) - 0.5) <= 1.0 / L
    assert counter(-2.5) == 0.0
    assert counter(2.5) == 1.0


def test_ids_table_monotone_and_normalized():
    params = st.JacobiParams(1.0, 2.0)
    lo, hi = default_energy_range(params)
    table = ids(FIBONACCI, params, 144, np.linspace(lo, hi, 801))
    n = np.array(table.n_values)
    assert (np.diff(n) >= 0).all()
    assert n[0] == 0.0 and n[-1] == 1.0  # total variation exactly 1
    assert table.value_at(lo - 1) == 0.0
    assert table.value_at(hi + 1) == 1.0


def test_ids_requires_minimum_length():
    params = st.JacobiParams(1.0, 1.0)
    with pytest.raises(ValueError):
        ids(FIBONACCI, params, 7, np.linspace(-4, 4, 10))


def test_ids_plateau_on_gaps_and_label_crosscheck():
    params = st.JacobiParams(1.0, 2.0)
    L = 987
    bands = st.floquet_bands(FIBONACCI, params, 8)
    counter = ids_counter(FIBONACCI, params, L)
    alpha = st.rotation_number(FIBONACCI).alpha
    lo, hi = default_energy_range(params)
    grid_step = (hi - lo) / 800
    # IDS varies by at most 2 counts across any detected gap wider than
    # 4 grid steps: each Dirichlet end can host one in-gap boundary state
    for g_lo, g_hi in bands.gaps():
        if g_hi - g_lo < 4 * grid_step:
            continue
        delta = 0.2 * (g_hi - g_lo)
        jump = round(abs(counter(g_hi - delta) - counter(g_lo + delta)) * L)
        assert jump <= 2
    # the widest gap carries the |m| = 1 label value
    g_lo, g_hi = max(bands.gaps(), key=lambda g: g[1] - g[0])
    value = counter(0.5 * (g_lo + g_hi))
    nearest = min(abs(value - (m * alpha) % 1.0) for m in (-1, 1))
    assert nearest < 2.0 / L


def test_scaling_exponent_free_chain_interior():
    params = st.JacobiParams(1.0, 0.0)
    counter = ids_counter(ALL_ZERO, params, 4000)
    d, err = ids_scaling_exponent(counter, 0.37, dyadic_ladder(0.2, 7))
    assert abs(d - 1.0) < 0.05


def test_scaling_exponent_free_chain_band_edge():
    params = st.JacobiParams(1.0, 0.0)
    counter = ids_counter(ALL_ZERO, params, 8000)
    d, err = ids_scaling_exponent(counter, 2.0, dyadic_ladder(0.2, 7))
    assert abs(d - 0.5) < 0.1  # van Hove square-root edge


def test_scaling_exponent_preconditions():
    params = st.JacobiParams(1.0, 0.0)
    counter = ids_counter(ALL_ZERO, params, 100)
    with pytest.raises(ValueError):
        ids_scaling_exponent(counter, 0.0, dyadic_ladder(0.2, 3))
    with pytest.raises(ValueError):
        # far outside the spectrum: empty mass window
        ids_scaling_exponent(counter, 10.0, dyadic_ladder(0.05, 6))


def test_ids_table_validation_and_quantile():
    with pytest.raises(ValueError):
        IdsTable((0.0, 1.0), (0.5, 0.4), 10)
    with pytest.raises(ValueError):
        IdsTable((0.0, 0.0), (0.0, 1.0), 10)
    for e, n in (((0.0, 1.0, 2.0), (0.0, 1.0)), (((0.0, 1.0), (1.0, 2.0)),) * 2,
                 ((0.0,), (0.0,))):
        with pytest.raises(ValueError, match="aligned 1-d grids with >= 2 points"):
            IdsTable(e, n, 10)
    nan = float("nan")
    for e, n in (((0.0, nan, 2.0), (0.0, 0.5, 1.0)), ((0.0, 1.0, 2.0), (0.0, nan, 1.0)),
                 ((0.0, 1.0, 2.0), (nan, 0.5, 1.0)), ((0.0, 1.0, 2.0), (0.0, 0.5, nan))):
        with pytest.raises(ValueError):
            IdsTable(e, n, 10)
    t = IdsTable((0.0, 1.0, 2.0), (0.0, 0.25, 1.0), 10)
    assert t.quantile(0.2) == 1.0
    assert t.value_at(1.5) == 0.25


def test_ids_table_keeps_a_read_only_copy_of_its_grids():
    e, n = np.array([0.0, 1.0, 2.0]), [0.0, 0.25, 1.0]
    t = IdsTable(e, n, 10)
    e[1], n[2] = 5.0, -1.0
    assert t.e_grid.tolist() == [0.0, 1.0, 2.0] and t.n_values.tolist() == [0.0, 0.25, 1.0]
    assert t.quantile(0.9) == 2.0 and t.value_at(1.5) == 0.25
    for grid in (t.e_grid, t.n_values):
        assert grid.dtype == np.float64
        with pytest.raises(ValueError):
            grid[0] = 0.5
    # the repr of the tuple form, as the dataclass of tuples printed it
    assert repr(t) == "IdsTable(e_grid=(0.0, 1.0, 2.0), n_values=(0.0, 0.25, 1.0), L=10)"
    assert t == IdsTable((-0.0, 1.0, 2.0), (0.0, 0.25, 1.0), 10)
    assert t != IdsTable((0.0, 1.0, 2.0), (0.0, 0.25, 1.0), 11)
    assert t != IdsTable((0.0, 1.0, 2.0), (0.0, 0.5, 1.0), 10)


def test_ids_table_lookups_equal_searchsorted():
    rng = np.random.default_rng(3)
    e = np.cumsum(rng.uniform(0.01, 1.0, 200)) - 50.0
    n = np.sort(rng.integers(0, 40, 200)) / 40.0
    t = IdsTable(tuple(e.tolist()), tuple(n.tolist()), 40)
    for E in np.concatenate([e, rng.uniform(-60.0, 160.0, 300), [-np.inf, np.inf]]).tolist():
        i = min(max(int(np.searchsorted(e, E, side="right")) - 1, 0), e.size - 1)
        assert t.value_at(E) == n[i]
    for u in np.concatenate([n, rng.uniform(-0.5, 1.5, 300)]).tolist():
        i = min(int(np.searchsorted(n, u, side="left")), n.size - 1)
        assert t.quantile(u) == e[i]


def _lookup_tables():
    """The tables of this file's lookup tests: a small one, a random one with
    repeated values, and a Fibonacci IDS table."""
    rng = np.random.default_rng(3)
    e = np.cumsum(rng.uniform(0.01, 1.0, 200)) - 50.0
    n = np.sort(rng.integers(0, 40, 200)) / 40.0
    params = st.JacobiParams(1.0, 2.0)
    lo, hi = default_energy_range(params)
    return [IdsTable((0.0, 1.0, 2.0), (0.0, 0.25, 1.0), 10),
            IdsTable(tuple(e.tolist()), tuple(n.tolist()), 40),
            ids(FIBONACCI, params, 144, np.linspace(lo, hi, 801))]


@pytest.mark.parametrize("table", _lookup_tables())
def test_ids_table_lookups_take_arrays_and_keep_the_bisect_rules(table):
    rng = np.random.default_rng(7)
    e, n = table.e_grid, table.n_values
    E = np.concatenate([e, rng.uniform(e[0] - 2.0, e[-1] + 2.0, 300), [-np.inf, np.inf, np.nan]])
    U = np.concatenate([n, rng.uniform(-0.5, 1.5, 300), [-np.inf, np.inf, np.nan]])
    for x in E.tolist():
        got = table.value_at(x)
        assert type(got) is float
        assert got == n[max(bisect.bisect_right(e, x) - 1, 0)]
    for u in U.tolist():
        got = table.quantile(u)
        assert type(got) is float
        assert got == e[min(bisect.bisect_left(n, u), len(n) - 1)]
    # an array gives an array of its shape, element by element the scalar results
    for fn, x in ((table.value_at, E), (table.quantile, U)):
        got = fn(x.reshape(-1, 1))
        assert isinstance(got, np.ndarray) and got.shape == (x.size, 1)
        assert got.ravel().tolist() == [fn(v) for v in x.tolist()]
        assert fn(x[:0]).shape == (0,)


def _counted_grid_quantiles(table, u):
    """The multisection of dos_dimension_summary on a table's own grid, with
    the table's values as the count."""
    return np.asarray(table.e_grid)[_grid_quantiles(table.value_at, np.asarray(table.e_grid), u)]


@pytest.mark.parametrize("table", _lookup_tables())
def test_grid_quantiles_equal_the_table_quantile(table):
    rng = np.random.default_rng(11)
    n = np.asarray(table.n_values)
    U = np.concatenate([n, rng.uniform(-0.5, 1.5, 300), [-np.inf, np.inf, np.nan]])
    assert np.array_equal(_counted_grid_quantiles(table, U), table.quantile(U))
    # a draw equal to a table value lands on the first point of that plateau
    first = np.searchsorted(n, n, side="left")
    assert np.array_equal(_counted_grid_quantiles(table, n), np.asarray(table.e_grid)[first])


@pytest.mark.parametrize("text, p, q, L, points", [("0->01;1->0", 1.0, 0.5, 4181, 4097),
                                                   ("0->001;1->0", -1.2, 2.0, 6765, 4097),
                                                   ("0->100;1->10", 0.7, -3.0, 987, 1000),
                                                   ("0->01;1->0", 1.0, 0.5, 8, 17)])
def test_grid_quantiles_on_the_count_equal_the_full_table(text, p, q, L, points):
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    counter = ids_counter(s, params, L)
    lo, hi = default_energy_range(params)
    grid = np.linspace(lo, hi, points)
    table = ids(s, params, L, grid)
    U = np.concatenate([table.n_values, np.random.default_rng(L).uniform(-0.5, 1.5, 500)])
    assert np.array_equal(grid[_grid_quantiles(counter, grid, U)], table.quantile(U))


@pytest.mark.parametrize("text, p, q, k", [("0->01;1->0", 1.1, 0.3, 8),
                                           ("0->001;1->0", 1.2, 0.7, 6)])
def test_gap_labels_need_only_the_midpoints(text, p, q, k):
    # the CLI's gaps table holds the range ends and the gap midpoints only
    s, params, L = parse_substitution(text), st.JacobiParams(p, q), 2584
    bands = st.floquet_bands(s, params, k)
    alpha = st.rotation_number(s).alpha
    lo, hi = default_energy_range(params)
    mids = [0.5 * (a + b) for a, b in bands.gaps()]
    dense = ids(s, params, L, np.unique(np.concatenate([np.linspace(lo, hi, 2049), mids])))
    sparse = ids(s, params, L, np.unique([lo, hi] + mids))
    assert (st.gaps_with_labels(bands, sparse, alpha, tol=2.0 / L)
            == st.gaps_with_labels(bands, dense, alpha, tol=2.0 / L))


def test_dos_summary_degenerate_single_sample():
    params = st.JacobiParams(1.0, 0.5)
    summ = st.dos_dimension_summary(FIBONACCI, params, 1, 610, seed=4)
    assert summ.d_min == summ.d_median == summ.d_max
    assert 0.0 < summ.d_median < 1.3


def test_dos_summary_medians_rise_toward_free():
    medians = []
    for q in (0.8, 0.2):
        params = st.JacobiParams(1.0, q)
        summ = st.dos_dimension_summary(FIBONACCI, params, 11, 610, seed=0)
        medians.append(summ.d_median)
    assert medians[1] > medians[0]


def _per_sample_summary(s, params, sample_count, L, seed, eps_max=None, n_scales=7):
    """The summary built one Sturm call per sample, as before the batched sweep."""
    lo, hi = default_energy_range(params)
    counter = ids_counter(s, params, L)
    table = ids(s, params, L, np.linspace(lo, hi, 4097))
    eps_max = (hi - lo) / 64.0 if eps_max is None else eps_max
    rng = np.random.default_rng(seed)
    exps, energies, skipped = [], [], 0
    for u in rng.uniform(1.0 / L, 1.0 - 1.0 / L, size=sample_count):
        E = float(table.quantile(u))
        try:
            d, _err = ids_scaling_exponent(counter, E, dyadic_ladder(eps_max, n_scales))
        except ValueError:
            skipped += 1
            continue
        exps.append(d)
        energies.append(E)
    arr = np.array(exps)
    return DosSummary(float(arr.min()), float(np.median(arr)), float(arr.max()),
                      tuple(exps), tuple(energies), skipped)


@pytest.mark.parametrize("text, p, q, n, L, seed, kw", [
    ("0->01;1->0", 1.1, 0.7, 17, 987, 3, {}),
    ("0->001;1->0", -0.9, 1.3, 13, 1393, 5, {"n_scales": 8}),
    ("0->01;1->0", 1.0, 2.0, 30, 377, 1, {"eps_max": 0.06}),  # most samples skipped
    ("0->01;1->0", 1.1, 0.9, 21, 4181, 7, {}),
    ("0->01;1->0", 0.8, 1.7, 21, 6765, 8, {}),
    ("0->001;1->0", 1.2, 0.7, 21, 4181, 9, {}),
    ("0->001;1->0", 1.4, 0.4, 21, 6765, 10, {}),
    # the shortest chain a summary takes
    ("0->01;1->0", 1.0, 0.5, 21, 8, 2, {"eps_max": 10.0, "n_scales": 5}),
    ("0->001;1->0", 1.2, 0.7, 21, 8, 1, {"eps_max": 8.0, "n_scales": 5}),
])
def test_dos_summary_batched_matches_per_sample(text, p, q, n, L, seed, kw):
    s, params = parse_substitution(text), st.JacobiParams(p, q)
    summ = st.dos_dimension_summary(s, params, n, L, seed=seed, **kw)
    assert summ == _per_sample_summary(s, params, n, L, seed, **kw)
    if "eps_max" in kw:
        assert summ.skipped > len(summ.exponents) > 0


def _counting(monkeypatch):
    """Sizes of the energy arrays of every block count the DOS module makes."""
    sizes = []
    count = dos_mod._block_count_below

    def wrapped(params, sp, blocks, L, E):
        sizes.append(np.size(E))
        return count(params, sp, blocks, L, E)

    monkeypatch.setattr(dos_mod, "_block_count_below", wrapped)
    return sizes


@pytest.mark.parametrize("text, L", [("0->01;1->0", 4181), ("0->001;1->0", 6765)])
def test_dos_summary_count_budget(monkeypatch, text, L):
    # three multisection rounds and one ladder count, against the 4097-point
    # table and the ladders (2 calls, 4391 energies) of a full sweep
    sizes = _counting(monkeypatch)
    summ = st.dos_dimension_summary(parse_substitution(text), st.JacobiParams(1.1, 0.9), 21, L,
                                    seed=2)
    assert len(summ.exponents) + summ.skipped == 21
    assert len(sizes) <= 4 and sum(sizes) < 1000


@pytest.mark.parametrize("L, kw, message", [
    (987, {"n_scales": 4}, "5 ladder scales"), (987, {"eps_max": 0.0}, "eps_max"),
    (987, {"eps_max": -0.1}, "eps_max"), (987, {"eps_max": float("nan")}, "eps_max"),
    (987, {"eps_max": float("inf")}, "eps_max"), (7, {}, "need L >= 8"),
    (0, {}, "need L >= 8")])
def test_dos_summary_refuses_before_counting(monkeypatch, L, kw, message):
    sizes = _counting(monkeypatch)
    with pytest.raises(ValueError, match=message):
        st.dos_dimension_summary(FIBONACCI, st.JacobiParams(1.0, 0.5), 5, L, **kw)
    assert sizes == []


def test_dos_summary_refuses_no_samples_before_counting(monkeypatch):
    sizes = _counting(monkeypatch)
    for sample_count in (0, -3):
        with pytest.raises(ValueError, match="need sample_count >= 1"):
            st.dos_dimension_summary(FIBONACCI, st.JacobiParams(1.0, 0.5), sample_count, 987)
    assert sizes == []


@pytest.mark.parametrize("s, p, L, message", [
    (FIBONACCI, 1e10, 4, "checked for"), (Substitution("011", "1"), 1.0, 4, "grows only linearly"),
    (FIBONACCI, 1.0, 0, "need L >= 1"), (FIBONACCI, 1.0, 7, "need L >= 8")])
def test_ids_refuses_as_its_counter_first_then_short_lengths(s, p, L, message):
    with pytest.raises(ValueError, match=message):
        ids(s, st.JacobiParams(p, 0.5), L, np.linspace(-3.0, 3.0, 5))


@pytest.mark.parametrize("L", [10.5, float("nan"), float("inf")])
def test_non_integral_length_is_refused_before_the_prefix_plan(L):
    # 10.5 raised IndexError from the block plan, and fixed_point_prefix a
    # TypeError on a slice
    for call in (lambda: ids_counter(FIBONACCI, st.JacobiParams(1.0, 1.0), L),
                 lambda: fixed_point_prefix(FIBONACCI, L)):
        with pytest.raises(ValueError, match="whole number of letters, got length %r" % L):
            call()


def test_whole_number_float_length_reads_as_the_int():
    # fixed_point_prefix raised TypeError on the slice at 10.0, which ids_counter took
    params = st.JacobiParams(1.0, 1.0)
    E = np.linspace(-3.0, 3.0, 41)
    for L in (10.0, np.float64(10.0)):
        assert fixed_point_prefix(FIBONACCI, L) == fixed_point_prefix(FIBONACCI, 10)
        assert ids_counter(FIBONACCI, params, L)(E).tolist() == \
            ids_counter(FIBONACCI, params, 10)(E).tolist()


PINNED = [parse_substitution(t) for t in ("0->01;1->0", "0->001;1->0", "0->1;1->10", "0->1;1->01",
                                          "0->0001;1->0", "0->100;1->10")] + [ALL_ZERO]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_ids_counter_equals_the_sturm_loop(index):
    s = PINNED[index]
    rng = np.random.default_rng(100 + index)
    lengths = [1, 2, 3, 8, 55, 233] + rng.integers(300, 3000, size=4).tolist()
    for n, L in enumerate(lengths):
        params = st.JacobiParams(rng.uniform(0.05, 3.0) * (-1) ** n, rng.uniform(-30.0, 30.0))
        hull = 1.0 + abs(params.q) + 2 * max(1.0, abs(params.p))
        E = np.concatenate([rng.uniform(-hull, hull, 300), np.linspace(-hull, hull, 101),
                            [0.0, -0.0, params.q, 1.0, -1.0, 1e300, -1e300, np.inf, -np.inf,
                             np.nan]])
        sturm = eigen_count_below_grid(dirichlet_restriction(params, fixed_point_prefix(s, L)), E)
        got = ids_counter(s, params, L)(E)
        assert np.array_equal(got, sturm / float(L))
        assert np.array_equal(np.rint(got * L), sturm)


@pytest.mark.parametrize("L, E, counts", [
    (3, [-1.0, 0.0, -0.0, 1.0], [1, 2, 2, 2]),
    # 2 cos(pi j / 2376) hits 0 and +-1 exactly: deep exact hits
    (2375, [-1.0, 0.0, 1.0], [792, 1188, 1584]),
])
def test_ids_counter_exact_hits_land_on_the_le_side(L, E, counts):
    # the free chain "000...": a last pivot of exactly 0 counts
    params = st.JacobiParams(1.0, 0.0)
    got = ids_counter(ALL_ZERO, params, L)(np.array(E)) * L
    assert np.rint(got).astype(int).tolist() == counts
    spec = dirichlet_restriction(params, fixed_point_prefix(ALL_ZERO, L))
    assert eigen_count_below_grid(spec, np.array(E)).tolist() == counts


def exact_count_below(spec, x):
    """Eigenvalues below the rational x, by a Sturm count in exact rationals."""
    bonds = [0.0] + list(spec.offdiag[1:])
    d, negative = None, 0
    for a, b in zip(spec.diag, bonds):
        d = Fraction(a) - x - (Fraction(b) ** 2 / d if b else 0)
        negative += d < 0
    return negative


# E = -1 is an eigenvalue, and the Sturm recursion meets an exact zero pivot inside the chain
EXACT_HIT = (parse_substitution("0->100;1->10"), st.JacobiParams(1.0, 1.0), 100, -1.0)


def test_ids_counter_counts_an_interior_zero_pivot_hit():
    s, params, L, E = EXACT_HIT
    spec = dirichlet_restriction(params, fixed_point_prefix(s, L))
    step = Fraction(1, 10 ** 40)
    assert exact_count_below(spec, Fraction(E) - step) == 26
    assert exact_count_below(spec, Fraction(E) + step) == 27   # the "<=" count at E
    assert ids_counter(s, params, L)(E) * L == 27


@pytest.mark.xfail(strict=True, reason="the -1e-300 pivot does not reproduce the E + 0 limit")
def test_sturm_loop_counts_an_interior_zero_pivot_hit():
    s, params, L, E = EXACT_HIT
    spec = dirichlet_restriction(params, fixed_point_prefix(s, L))
    assert eigen_count_below_grid(spec, np.array([E])).tolist() == [27]


def test_ids_counter_errors_unchanged():
    params = st.JacobiParams(1.0, 1.0)
    with pytest.raises(ValueError):
        ids_counter(FIBONACCI, params, 0)
    with pytest.raises(st.ResourceLimitError):
        ids_counter(FIBONACCI, params, WORD_LENGTH_CAP + 1)
    with pytest.raises(UnsupportedSubstitutionError):
        ids_counter(Substitution("0", "10"), params, 10)
    assert ids_counter(FIBONACCI, params, 1)(np.inf) == 1.0
    assert not hasattr(ids_counter(FIBONACCI, params, 5), "spec")


@pytest.mark.parametrize("text", ["0->011;1->1", "0->01;1->1"])
def test_ids_counter_refuses_a_linearly_growing_fixed_letter(text):
    # the fixed point 0111... would take one block level per letter
    s = parse_substitution(text)
    params = st.JacobiParams(1.0, 1.0)
    with pytest.raises(UnsupportedSubstitutionError):
        ids_counter(s, params, 2)
    assert ids_counter(s, params, 1)(np.inf) == 1.0
    assert fixed_point_prefix(s, 9) == "011111111"


def test_dos_path_never_imports_scipy():
    # scipy adds ~27 MB to a process; the DOS path needs numpy only
    code = ("import sys\n"
            "import numpy as np\n"
            "from sturmtrace import FIBONACCI, JacobiParams, dos\n"
            "params = JacobiParams(1.1, 0.7)\n"
            "dos.ids(FIBONACCI, params, 987, np.linspace(-4.0, 4.0, 257))\n"
            "dos.dos_dimension_summary(FIBONACCI, params, 5, 987, seed=1)\n"
            "print('scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_ids_counter_equals_the_sturm_loop_at_large_hopping():
    # unscaled, a letter with p = 1e8 holds its energy dependence in an
    # angle offset of 1e-16 and the counts go wrong by hundreds
    rng = np.random.default_rng(5)
    for p in (1e8, -1e8, -1e9):
        params = st.JacobiParams(p, 0.7)
        E = np.concatenate([rng.uniform(-5.0, 5.0, 400),
                            rng.uniform(abs(p) - 5.0, abs(p) + 5.0, 100)])
        spec = dirichlet_restriction(params, fixed_point_prefix(FIBONACCI, 987))
        sturm = eigen_count_below_grid(spec, E)
        assert np.array_equal(ids_counter(FIBONACCI, params, 987)(E), sturm / 987.0)
    # beyond 1e9 the energies within a few 1e-13 |p| of an eigenvalue, which
    # the tie rule counts on the "<=" side, reach into the O(1) window
    for p in (1e10, -1e10, np.inf, np.nan):
        with pytest.raises(ValueError):
            ids_counter(FIBONACCI, st.JacobiParams(p, 0.7), 987)
