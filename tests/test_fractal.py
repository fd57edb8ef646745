import bisect
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import sturmtrace as st
from sturmtrace import fractal
from sturmtrace.fractal import box_count, box_dimension, thickness
from sturmtrace.spectrum import BandSet, combinatorial_gap_label, restrict_bands


def middle_thirds(level, lo=0.0, hi=1.0):
    bands = [(lo, hi)]
    for _ in range(level):
        nxt = []
        for a, b in bands:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        bands = nxt
    return tuple(bands)


def integer_middle_thirds(level):
    # endpoints are integers (exact floats), so bridge/gap ratios are exact
    bands = [(0, 3 ** level)]
    for _ in range(level):
        nxt = []
        for a, b in bands:
            third = (b - a) // 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        bands = nxt
    return tuple((float(a), float(b)) for a, b in bands)


def box_count_loop(bands, eps):
    """The per-band box count box_count replaced, kept as its oracle."""
    total = 0
    last = None
    for a, b in bands:
        j0 = math.floor(a / eps)
        j1 = math.floor(b / eps)
        if b == j1 * eps and j1 > j0:  # right endpoint on a box boundary
            j1 -= 1
        if last is not None and j0 <= last:
            j0 = last + 1
        if j1 >= j0:
            total += j1 - j0 + 1
            last = j1
    return total


def assert_counts_match_loop(bands, scales):
    expected = [box_count_loop(bands, e) for e in scales]
    for e, n in zip(scales, expected):
        got = box_count(bands, e)
        assert type(got) is int and got == n
    got = box_count(bands, np.array(scales))
    assert got.shape == (len(scales),) and got.tolist() == expected


@pytest.mark.parametrize("bands, eps", [(((0.0, 1.0),), 0.0), (((0.0, 1.0),), -0.5),
                                        (((0.0, 1.0),), math.nan), (((0.0, 1.0),), math.inf),
                                        (((0.0, 1.0),), [0.5, 0.0]), (((-1.0, 1.0),), 2.0 ** -62),
                                        (((1e10, 1e10 + 1.0),), 1e-9),
                                        (((-1.0, 0.0), (0.5, math.inf)), 0.5)])
def test_box_count_refuses_scales_past_its_int64_boxes(bands, eps):
    with pytest.raises(ValueError, match="eps"):
        box_count(BandSet(bands), eps)


def test_box_count_below_its_int64_limit():
    # indices past 2**53 are exact in int64, not in float64
    assert box_count(BandSet(((0.0, 1.0),)), 2.0 ** -61) == 2 ** 61
    assert box_count(BandSet(((-1.0, 1.0),)), 2.0 ** -61) == 2 ** 62
    assert box_count(BandSet(((0.0, 1.0),)), 1e300) == 1
    assert box_count(BandSet(()), 1e-300) == 0


def test_box_count_equals_loop_on_seeded_middle_thirds():
    rng = np.random.default_rng(5)
    for _ in range(12):
        lo = rng.uniform(-3.0, 3.0)
        bands = middle_thirds(int(rng.integers(1, 9)), lo, lo + rng.uniform(0.01, 5.0))
        hull = bands[-1][1] - bands[0][0]
        scales = [hull * 2.0 ** -i for i in range(1, 30)] + list(hull * rng.uniform(1e-6, 1.0, 20))
        assert_counts_match_loop(bands, scales)
        # the running max keeps the loop's count on unsorted pairs too
        assert_counts_match_loop(tuple(rng.permutation(bands).tolist()), scales)


def test_box_count_equals_loop_with_ends_on_box_boundaries():
    for level in (1, 4, 7):
        bands = integer_middle_thirds(level)
        shifted = tuple((a - 3.0 ** level // 2, b - 3.0 ** level // 2) for a, b in bands)
        scales = [0.25, 0.5, 1.0, 2.0, 3.0, 6.0, 9.0, 27.0, 81.0]
        assert_counts_match_loop(bands, scales)
        assert_counts_match_loop(shifted, scales)


def test_box_count_equals_loop_on_one_band():
    for band in ((0.0, 1.0), (-0.3, 0.7), (-2.0, -1.0), (1.5, 1.5)):
        assert_counts_match_loop((band,), [0.1, 0.25, 0.3, 0.5, 1.0, 3.0, 1e-3])


def test_box_count_equals_loop_on_metal_mean_level_10():
    bands = st.floquet_bands(st.parse_substitution("0->001;1->0"),
                             st.JacobiParams(1.5, 1.0), 10)
    assert bands.band_count == 8119
    lo, hi = bands.hull()
    scales = [(hi - lo) * 2.0 ** -i for i in range(2, 47)] + [0.1, 0.01, 1e-3, 1e-4, 1e-5]
    assert_counts_match_loop(bands.bands, scales)


def test_box_count_in_blocks_equals_loop(monkeypatch):
    # the default ladder of an 8119-band set takes several BOX_CELLS passes
    bands = st.floquet_bands(st.parse_substitution("0->001;1->0"),
                             st.JacobiParams(1.5, 1.0), 10)
    ladders = []
    monkeypatch.setattr(fractal, "box_count", lambda b, eps: ladders.append(eps) or box_count(b, eps))
    box_dimension(bands)
    (eps,) = ladders
    assert bands.band_count * eps.size > 2 * fractal.BOX_CELLS
    assert box_count(bands, eps).tolist() == [box_count_loop(bands.bands, e) for e in eps.tolist()]
    # blocks of one row, of a few rows and a last block cut short
    bands = middle_thirds(5, -0.3, 1.9)
    for cells in (1, 32, 100):
        monkeypatch.setattr(fractal, "BOX_CELLS", cells)
        assert_counts_match_loop(bands, [2.2 * 2.0 ** -i for i in range(1, 12)])


def test_box_count_shapes():
    bands = middle_thirds(3)
    for eps in (0.1, np.float64(0.1), np.array(0.1)):
        assert type(box_count(bands, eps)) is int
    assert box_count(bands, np.full((2, 3), 0.1)).shape == (2, 3)
    assert box_count(bands, np.array([])).shape == (0,)
    empty = box_count(BandSet(()), np.array([0.5, 1e-3, 1e-300]))
    assert empty.dtype == np.int64 and empty.tolist() == [0, 0, 0]


def test_box_count_temporaries_stay_small():
    edges = np.sort(np.random.default_rng(2).uniform(-2.0, 2.0, 2 * 46368)).reshape(-1, 2)
    eps = 2.0 ** -np.arange(40)
    tracemalloc.start()
    try:
        counts = box_count(edges, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 4
    # a single (40, 46368) int64 array would take 14.8 MB
    assert peak < 4 * 2 ** 20


# sha256 of repr((box_dimension, 6-window local_dimension_profile)) on
# scan-shallow-like levels: the estimates stay the same float for float
@pytest.mark.parametrize("text, p, q, k, kw, digest", [
    ("0->01;1->0", 1.4122, 0.9564, 12, {},
     "682ed4ca2dc74d0bd2f8c5e1199778ccf8ba86b032f07cba892b2f48a18c8749"),
    ("0->1;1->10", 0.909, 0.7183, 10, {},
     "01eeaf9482ed171b9007acb837ae3db44fce25bd5401aa71ecb34ad2d296dc67"),
    ("0->01;1->0", 1.0, 24.97, 11, dict(tol=3e-14, merge_tol=2e-13),
     "77e478bdb360178d258685162566f58954be282f83604ad46caf416fd86e8d7d"),
])
def test_dimension_estimates_are_pinned(text, p, q, k, kw, digest):
    s, params = st.parse_substitution(text), st.JacobiParams(p, q)
    bands = st.floquet_bands(s, params, k, **kw)
    estimates = (box_dimension(bands), st.local_dimension_profile(s, params, k, 6, bands=bands))
    assert hashlib.sha256(repr(estimates).encode()).hexdigest() == digest


def test_box_dimension_unchanged_on_readme_dims_case():
    # the estimate of the per-band loop on `dims "0->01;1->0" --p 1 --q 2 --level 10`
    bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 10)
    assert box_dimension(bands) == st.DimensionEstimate(
        0.6273394956820156, 0.012118410221121081, 0.0089947854299695, 0.143916566879512, 5)


def test_box_count_exact_on_simple_sets():
    assert box_count(((0.0, 1.0),), 0.25) == 4
    assert box_count(((0.0, 1.0), (2.0, 3.0)), 0.5) == 4
    # right endpoint on a box boundary does not spill into the next box
    assert box_count(((0.0, 0.5),), 0.25) == 2


def test_box_dimension_single_interval():
    est = box_dimension(((0.0, 1.0),))
    assert abs(est.value - 1.0) <= 0.02
    assert est.n_scales >= 5


def test_box_dimension_middle_thirds():
    est = box_dimension(middle_thirds(10))
    assert abs(est.value - math.log(2) / math.log(3)) <= 0.02


def test_box_dimension_errors():
    with pytest.raises(ValueError):
        box_dimension(())
    bands = middle_thirds(6)
    smallest = min(b - a for a, b in bands)
    with pytest.raises(ValueError):
        # scales below the validity floor are rejected outright
        box_dimension(bands, scales=[smallest / 4.0] * 6)


def test_box_counts_below_smallest_band_look_one_dimensional():
    # the slope the guard excludes: counting below the smallest band
    bands = middle_thirds(6)
    smallest = min(b - a for a, b in bands)
    eps = np.array([smallest / 2 ** i for i in range(3, 10)])
    counts = np.array([box_count(bands, e) for e in eps], float)
    slope = np.polyfit(np.log(1 / eps), np.log(counts), 1)[0]
    # distinctly one-dimensional, nowhere near the true log2/log3
    assert slope > 0.9


def test_thickness_examples():
    assert thickness(((0.0, 1.0),)).value == math.inf
    assert thickness(((0.0, 1.0), (2.0, 3.0))).value == 1.0
    assert thickness(integer_middle_thirds(8)).value == 1.0  # exact


def thickness_by_insort(bands):
    """The insort thickness that the nearest-larger-gap passes replaced, kept as their oracle."""
    band_list = tuple(getattr(bands, "bands", bands))
    gaps = [(b1, a2) for (_, b1), (a2, _) in zip(band_list, band_list[1:])]
    hull_lo, hull_hi = band_list[0][0], band_list[-1][1]
    gaps.sort(key=lambda g: (g[1] - g[0]), reverse=True)  # stable: equal lengths left first
    cuts = [hull_lo, hull_hi]
    tau = math.inf
    for lo, hi in gaps:
        width = hi - lo
        if width <= 0:
            continue  # touching bands
        left_bridge = lo - cuts[bisect.bisect_right(cuts, lo) - 1]
        right_bridge = cuts[bisect.bisect_left(cuts, hi)] - hi
        tau = min(tau, left_bridge / width, right_bridge / width)
        bisect.insort(cuts, lo)
        bisect.insort(cuts, hi)
    return float(tau)


def random_band_set(rng):
    """Sorted bands of integer lengths, with tied gap lengths, zero-length
    gaps and point bands a == b; half of them moved off the integers."""
    n = int(rng.integers(1, 80))
    lengths = rng.choice([1, 2, 3], size=n).tolist()
    if rng.random() < 0.3:
        lengths[int(rng.integers(n))] = 0  # one point band
    gaps = rng.choice([0, 1, 2, 3, 5], size=n, p=[0.1, 0.3, 0.3, 0.2, 0.1]).tolist()
    bands, x = [], 0
    for length, gap in zip(lengths, gaps):
        bands.append((x, x + length))
        x += length + gap
    scale, shift = (rng.uniform(0.01, 3.0), rng.uniform(-5.0, 5.0)) if rng.random() < 0.5 else (1, 0)
    return tuple((float(scale * a + shift), float(scale * b + shift)) for a, b in bands)


def test_thickness_equals_insort_on_seeded_band_sets():
    rng = np.random.default_rng(13)
    values = []
    for _ in range(300):
        bands = random_band_set(rng)
        values.append(thickness(bands).value)
        assert values[-1] == thickness_by_insort(bands)
    # the sets reach every branch: no gaps, touching bands, zero and finite thickness
    assert math.inf in values and 0.0 in values
    assert sum(0.0 < v < math.inf for v in values) >= 50


@pytest.mark.parametrize("text, p, q, k", [("0->01;1->0", 1.0, 0.2, 10),
                                           ("0->01;1->0", 1.0, 1.0, 10),
                                           ("0->01;1->0", 1.0, 16.0, 10),
                                           ("0->001;1->0", 1.5, 1.0, 7)])
def test_thickness_equals_insort_on_solver_band_sets(text, p, q, k):
    kw = {"tol": 3e-14, "merge_tol": 2e-13} if q > 4 else {}
    bands = st.floquet_bands(st.parse_substitution(text), st.JacobiParams(p, q), k, **kw)
    assert thickness(bands).value == thickness_by_insort(bands)


def test_thickness_deep_middle_thirds_is_one():
    # 65536 bands: about 0.1 s with the linear passes, about 1 s with one insort per gap
    assert thickness(integer_middle_thirds(16)).value == 1.0


def test_thickness_affine_invariance():
    bands = middle_thirds(7)
    base = thickness(bands).value
    for scale, shift in ((2.7, -3.0), (0.13, 11.0)):
        moved = tuple((scale * a + shift, scale * b + shift) for a, b in bands)
        assert abs(thickness(moved).value - base) < 1e-9


def test_thickness_coupling_trend_fibonacci():
    # tau grows without bound as coupling shrinks and collapses as it grows
    taus = []
    for V in (0.2, 0.5, 1.0, 4.0, 8.0, 16.0):
        kw = {} if V < 4 else {"tol": 3e-14, "merge_tol": 2e-13}
        bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, V), 10, **kw)
        taus.append(thickness(bands).value)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert taus[0] > 5.0 and taus[-1] < 0.01


def test_dim_thickness_inequality():
    # dim >= log2 / log(2 + 1/tau) within estimator error
    for V in (1.0, 4.0):
        bands = st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, V), 10,
                                 tol=3e-14, merge_tol=2e-13)
        est = box_dimension(bands)
        tau = thickness(bands).value
        lower = math.log(2.0) / math.log(2.0 + 1.0 / tau)
        assert est.value >= lower - 3.0 * max(est.stderr, 0.02)


def test_local_profile_flat_for_schrodinger():
    params = st.JacobiParams(1.0, 1.5)
    profile = st.local_dimension_profile(st.FIBONACCI, params, 10, 6)
    vals = [e.value for _, e in profile if e is not None]
    errs = [e.stderr for _, e in profile if e is not None]
    assert len(vals) >= 4
    spread = max(vals) - min(vals)
    assert spread <= 2.0 * (max(errs) + 0.05)


def test_local_profile_trend_for_jacobi():
    # q (p^2 - 1) > 0: invariant grows with E, so local dimension drops
    params = st.JacobiParams(1.5, 1.0)
    profile = st.local_dimension_profile(st.FIBONACCI, params, 10, 6)
    pts = [(c, e.value) for c, e in profile if e is not None]
    assert len(pts) >= 4
    xs = np.array([c for c, _ in pts])
    ys = np.array([v for _, v in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope < 0


def test_local_profile_single_window_is_global():
    params = st.JacobiParams(1.0, 2.0)
    bands = st.floquet_bands(st.FIBONACCI, params, 8)
    profile = st.local_dimension_profile(st.FIBONACCI, params, 8, 1, bands=bands)
    assert len(profile) == 1
    global_est = box_dimension(bands)
    assert abs(profile[0][1].value - global_est.value) < 1e-12


def profile_by_restrict(bands, window_count):
    """The profile that clipped each window to a validated BandSet, kept as its oracle."""
    lo, hi = bands.hull()
    width = (hi - lo) / window_count
    out = []
    for i in range(window_count):
        w_lo, w_hi = lo + i * width, lo + (i + 1) * width
        chunk = restrict_bands(bands.bands, w_lo, w_hi)
        center = 0.5 * (w_lo + w_hi)
        if len(chunk) < 2 and window_count > 1:
            out.append((center, None))
        else:
            out.append((center, box_dimension(BandSet(chunk, edge_tol=bands.edge_tol))))
    return out


@pytest.mark.parametrize("window_count", [1, 6, 13])
def test_local_profile_equals_restrict_reference(window_count):
    solved = [st.floquet_bands(st.FIBONACCI, st.JacobiParams(1.0, 2.0), 10),
              st.floquet_bands(st.parse_substitution("0->001;1->0"), st.JacobiParams(1.5, 1.0), 7)]
    # two clusters far apart, so that some windows hold one band or none,
    # and a point band that a clip must keep
    sparse = BandSet(middle_thirds(5, 0.0, 1.0) + ((1.05, 1.05), (3.1, 3.2))
                     + middle_thirds(5, 10.0, 11.0))
    nones = 0
    for bands in solved + [sparse]:
        profile = st.local_dimension_profile(None, None, bands.level, window_count, bands=bands)
        assert profile == profile_by_restrict(bands, window_count)
        nones += sum(est is None for _, est in profile)
    assert (nones > 0) == (window_count > 1)


def test_restrict_bands():
    bands = ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
    assert restrict_bands(bands, 0.5, 4.5) == ((0.5, 1.0), (2.0, 3.0), (4.0, 4.5))


def test_large_coupling_skips_zero():
    rows = st.large_coupling_check([0.0], k=4)
    assert rows == []


def test_large_coupling_asymptote_needs_coupling_above_one():
    rows = st.large_coupling_check([1.0, 0.5, -2.0, 2.0], k=4)
    assert math.isnan(rows[0]["asymptote"]) and math.isnan(rows[1]["asymptote"])
    # H(-V) is unitarily -H(V): same asymptote, mirrored bands
    assert rows[2]["asymptote"] == rows[3]["asymptote"] == math.log(1 + math.sqrt(2)) / math.log(2)
    assert rows[2]["bands"] == rows[3]["bands"]


@pytest.mark.parametrize("text, fibonacci_class", [
    ("0->01;1->0", True), ("0->1;1->10", True), ("0->010;1->01", True), ("0->001;1->0", False),
])
def test_large_coupling_asymptote_is_for_the_fibonacci_class(text, fibonacci_class):
    (row,) = st.large_coupling_check([24.0], k=6, s=st.parse_substitution(text))
    assert row["bands"] > 1 and 0.0 < row["dim"] < 1.0
    if fibonacci_class:
        assert row["asymptote"] == math.log(1 + math.sqrt(2)) / math.log(24.0)
    else:
        assert math.isnan(row["asymptote"])


def test_gap_opening_rate_rejects_empty_t_list():
    with pytest.raises(ValueError, match="need at least one t value"):
        st.gap_opening_rate(st.FIBONACCI, lambda t: (1.0, t), [], label_m=1, k=6)


def test_gap_opening_rate_rejects_t_zero():
    with pytest.raises(ValueError):
        st.gap_opening_rate(st.FIBONACCI, lambda t: (1.0, t), [0.2, 0.0], label_m=1, k=6)


def test_gap_opening_rate_smoke():
    res = st.gap_opening_rate(st.FIBONACCI, lambda t: (1.0, t), [0.4, 0.2], label_m=1, k=8)
    assert len(res.ratios) == 2
    assert all(r > 0 for r in res.ratios)


def ids_reference_width(s, path, t, label_m, k):
    """Width of the |label_m| gap as read from an IDS truncation, or None.

    The selection gap_opening_rate made before it named gaps by band
    count: IDS at the gap midpoints of an L = 1597 truncation, labels
    frac(m alpha) with |m| <= 34 matched within 2/L, widest match.
    """
    L = 1597
    p, q = path(t)
    params = st.JacobiParams(float(p), float(q))
    bands = st.floquet_bands(s, params, k)
    lo, hi = bands.hull()
    pad = 0.05 * (hi - lo)
    mids = [0.5 * (g[0] + g[1]) for g in bands.gaps()]
    table = st.ids(s, params, L, np.unique([lo - pad, hi + pad] + mids))
    labeled = st.gaps_with_labels(bands, table, st.rotation_number(s).alpha, m_max=34,
                                  tol=2.0 / L)
    widths = [g.width for g in labeled if g.label_m is not None and abs(g.label_m) == abs(label_m)]
    return max(widths) if widths else None


GAP_RATE_PATHS = {"(1, t)": lambda t: (1.0, t), "(1 + t, t)": lambda t: (1.0 + t, t)}


@pytest.mark.parametrize("path_name", sorted(GAP_RATE_PATHS))
@pytest.mark.parametrize("k", [6, 8, 10])
def test_gap_opening_rate_equals_the_ids_reference(k, path_name):
    path = GAP_RATE_PATHS[path_name]
    compared = 0
    for m in (1, 2, 3, 5):
        res = st.gap_opening_rate(st.FIBONACCI, path, [0.4, 0.1], label_m=m, k=k)
        for t, width, ratio in zip(res.t_values, res.widths, res.ratios):
            ref = ids_reference_width(st.FIBONACCI, path, t, m, k)
            if ref is None:
                continue  # the truncation cannot resolve this label
            p, q = path(t)
            assert width == ref and ratio == ref / math.hypot(p - 1.0, q)
            compared += 1
    assert compared >= 4   # the reference resolves at least half of the 8 cases


def test_gap_opening_rate_needs_no_ids(monkeypatch):
    path = lambda t: (1.0, t)
    t_list = [0.4, 0.2, 0.1, 0.05]
    ref = [ids_reference_width(st.FIBONACCI, path, t, 1, 10) for t in t_list]

    def refuse(*args, **kwargs):
        raise AssertionError("gap_opening_rate evaluated the IDS")

    monkeypatch.setattr("sturmtrace.dos.ids_counter", refuse)
    res = st.gap_opening_rate(st.FIBONACCI, path, t_list, label_m=1, k=10)
    assert list(res.widths) == ref
    assert res.stable


@pytest.mark.parametrize("text, k, m, t_list", [
    ("0->1;1->10", 4, 1, [0.1, 0.05]),
    ("0->01;1->0", 12, 40, [0.4, 0.2]),   # |m| past the truncation's 34
])
def test_gap_opening_rate_where_the_ids_match_fails(text, k, m, t_list):
    s, path = st.parse_substitution(text), lambda t: (1.0, t)
    res = st.gap_opening_rate(s, path, t_list, label_m=m, k=k)
    for t, width in zip(res.t_values, res.widths):
        assert ids_reference_width(s, path, t, m, k) is None
        bands = st.floquet_bands(s, st.JacobiParams(*path(t)), k)
        # the widest gap whose band-count label is +-m
        assert width == max(hi - lo for j, (lo, hi) in enumerate(bands.gaps(), 1)
                            if abs(combinatorial_gap_label(s, bands, j)) == m)


def test_gap_opening_rate_errors_name_the_missing_gap():
    path = lambda t: (1.0, t)
    # at q = 1e-9 the level-12 set is 1 band and 376 closed gaps
    with pytest.raises(ValueError, match="labels undefined"):
        st.gap_opening_rate(st.FIBONACCI, path, [1e-9], label_m=1, k=12)
    # q_5 = 13: label 13 names no gap
    with pytest.raises(ValueError, match="label m = 13 has no gap at level 5"):
        st.gap_opening_rate(st.FIBONACCI, path, [0.4], label_m=13, k=5)


def test_p_to_zero_reference_and_trend():
    res = st.p_to_zero_scan(st.FIBONACCI, 1.0, [0.4, 0.1], k=7)
    assert len(res["reference"]) == 5
    rows = res["rows"]
    assert rows[0]["p"] == 0.4 and rows[1]["p"] == 0.1
    assert rows[0]["dim"] > rows[1]["dim"]
    assert rows[0]["dist_to_reference"] > rows[1]["dist_to_reference"]
