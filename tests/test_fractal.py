import math

import numpy as np
import pytest

import sturmtrace as st
from sturmtrace.fractal import box_count, box_dimension, restrict_bands, thickness


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


def test_p_to_zero_reference_and_trend():
    res = st.p_to_zero_scan(st.FIBONACCI, 1.0, [0.4, 0.1], k=7)
    assert len(res["reference"]) == 5
    rows = res["rows"]
    assert rows[0]["p"] == 0.4 and rows[1]["p"] == 0.1
    assert rows[0]["dim"] > rows[1]["dim"]
    assert rows[0]["dist_to_reference"] > rows[1]["dist_to_reference"]
