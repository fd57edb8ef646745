"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them all).
"""

import math
import time
from functools import lru_cache

import numpy as np
import sympy

import sturmtrace as st
from sturmtrace.dos import ids_counter
from sturmtrace.fractal import box_count, restrict_bands
from sturmtrace.jacobi import half_trace, word_transfer
from sturmtrace.spectrum import (
    default_energy_range,
    floquet_band_tower,
    gap_index_for_label,
)
from sturmtrace.substitution import Substitution, parse_substitution, periodic_word
from sturmtrace.tracemap import TraceMapRecipe, apply_period, fricke_vogt

METAL = Substitution("001", "0")
FIB = st.FIBONACCI
HUGE = 1e100


def report(num, name, ok, detail=""):
    print("criterion %02d (%s): %s%s" % (num, name, "PASS" if ok else "FAIL",
                                         " (%s)" % detail if detail else ""))
    assert ok, "criterion %02d %s failed: %s" % (num, name, detail)


@lru_cache(maxsize=None)
def tower(subst_text, p, q, kmax, tol=None, merge_tol=None):
    s = parse_substitution(subst_text)
    return floquet_band_tower(s, st.JacobiParams(p, q), kmax, tol=tol,
                              merge_tol=merge_tol)


def torus_point(theta, phi):
    return (math.cos(2 * math.pi * (theta + phi)),
            math.cos(2 * math.pi * theta),
            math.cos(2 * math.pi * phi))


def test_criterion_01_invariant_conservation():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_scaled = 0.0
    worst_tame = 0.0
    n_points = 0
    n_tame = 0
    for _ in range(100):
        period = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
        rec = TraceMapRecipe(period=period)
        x, y, z = rng.uniform(-2.0, 2.0, size=(3, 100))
        ip = x * x + y * y + z * z - 2 * x * y * z - 1.0
        qx, qy, qz = x.copy(), y.copy(), z.copy()
        for a in period:
            qy, qz = qz, qy
            for _ in range(a):
                qx, qy = 2.0 * qx * qz - qy, qx
        iq = qx * qx + qy * qy + qz * qz - 2 * qx * qy * qz - 1.0
        drift = np.abs(iq - ip)
        # scale: conditioning of evaluating I at the image point
        scale = 1.0 + np.abs(ip) + (np.abs(qx) + np.abs(qy) + np.abs(qz)) ** 3
        worst_scaled = max(worst_scaled, float(np.max(drift / scale)))
        tame = np.maximum(np.abs(qx), np.maximum(np.abs(qy), np.abs(qz))) <= 10.0
        n_tame += int(tame.sum())
        if tame.any():
            worst_tame = max(worst_tame, float(np.max(
                drift[tame] / (1.0 + np.abs(ip[tame])))))
        n_points += 100
    dt = time.perf_counter() - t0
    ok = worst_scaled <= 1e-9 and worst_tame <= 1e-9 and n_tame > 2000 and dt < 1.0
    report(1, "invariant conservation", ok,
           "drift %.2e scaled / %.2e tame (%d pts, %d tame) in %.2fs"
           % (worst_scaled, worst_tame, n_points, n_tame, dt))


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for s in (FIB, METAL, FIB.power(2)):
        recipe = st.recipe_from_substitution(s)
        words = {k: periodic_word(s, k) for k in range(9)}
        for _ in range(100):
            p = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
            q = rng.uniform(-3.0, 3.0)
            E = rng.uniform(-3.0, 3.0)
            params = st.JacobiParams(p, q)
            l0 = st.initial_conditions_grid(params, E)
            for k in range(9):
                try:
                    ht = half_trace(word_transfer(params, words[k], E))
                except OverflowError:
                    ht = None
                try:
                    tm = (st.step(recipe, l0, k)[0] if k
                          else (E / 2 if recipe.star == "0" else (E - q) / (2 * p)))
                except OverflowError:
                    tm = None
                if (ht is None or tm is None or abs(ht) > HUGE or abs(tm) > HUGE):
                    both_huge = ((ht is None or abs(ht) > 1e50)
                                 and (tm is None or abs(tm) > 1e50))
                    assert both_huge, (s.text(), p, q, E, k, ht, tm)
                    continue
                worst = max(worst, abs(ht - tm) / max(1.0, abs(ht)))
                checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-7 and dt < 10.0
    report(2, "oracle equivalence", ok,
           "worst rel err %.2e over %d finite pairs in %.1fs" % (worst, checked, dt))


def test_criterion_03_semiconjugacy():
    rng = np.random.default_rng(3)
    worst = 0.0
    for s in (FIB, METAL, FIB.power(2)):
        rec = st.recipe_from_substitution(s)
        A = np.array(s.abelianization)
        for _ in range(1000):
            v = rng.uniform(0.0, 1.0, size=2)
            lhs = torus_point(*(A @ v % 1.0))
            rhs = apply_period(rec, torus_point(*v))
            worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    ok = worst <= 1e-9
    report(3, "semiconjugacy F o A = T o F", ok, "worst abs err %.2e" % worst)


def test_criterion_04_free_case():
    worst = 0.0
    ok = True
    tw = tower(FIB.text(), 1.0, 0.0, 10)
    for k in range(11):
        b = tw[k]
        if b.band_count != 1:
            ok = False
            break
        a, bb = b.bands[0]
        worst = max(worst, abs(a + 2.0), abs(bb - 2.0))
    ok = ok and worst <= 1e-10
    report(4, "free case band [-2,2]", ok, "worst edge err %.2e over k<=10" % worst)


def test_criterion_05_invariant_along_curve():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        q = rng.uniform(-3.0, 3.0)
        E = rng.uniform(-4.0, 4.0)
        params = st.JacobiParams(p, q)
        lhs = fricke_vogt(st.initial_conditions_grid(params, E))
        rhs = st.initial_invariant(params, E)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    # symbolic slope comparison at 3 random rational parameter pairs
    E_s, p_s, q_s = sympy.symbols("E p q")
    lx = (E_s ** 2 - q_s * E_s - p_s ** 2 - 1) / (2 * p_s)
    ly = (E_s - q_s) / (2 * p_s)
    lz = E_s / 2
    I_expr = lx ** 2 + ly ** 2 + lz ** 2 - 2 * lx * ly * lz - 1
    slope_expr = sympy.diff(I_expr, E_s)
    symbolic_ok = True
    for _ in range(3):
        pv = sympy.Rational(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        qv = sympy.Rational(int(rng.integers(-9, 9)), int(rng.integers(1, 9)))
        if pv == 0:
            pv = sympy.Rational(1, 2)
        lhs = sympy.simplify(slope_expr.subs({p_s: pv, q_s: qv}))
        rhs = qv * (pv ** 2 - 1) / (4 * pv ** 2)
        symbolic_ok = symbolic_ok and sympy.simplify(lhs - rhs) == 0
    ok = worst <= 1e-12 and symbolic_ok
    report(5, "invariant along the curve", ok,
           "numeric worst %.2e, symbolic %s" % (worst, symbolic_ok))


def test_criterion_06_zero_measure_trend():
    t0 = time.perf_counter()
    tw = tower(FIB.text(), 1.0, 2.0, 10)
    measures = [tw[k].measure() for k in range(2, 11)]
    dt = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(measures, measures[1:]))
    ratio = measures[-1] / measures[2]   # sigma_10 vs sigma_4
    ok = decreasing and ratio < 0.5 and dt < 60.0
    report(6, "Cantor zero-measure trend", ok,
           "measures %.3f..%.4f, sigma10/sigma4 = %.3f, %.1fs"
           % (measures[0], measures[-1], ratio, dt))


def test_criterion_07_hausdorff_convergence():
    ok = True
    details = []
    for s in (FIB, METAL):
        for (p, q) in ((1.0, 1.0), (1.5, 1.0)):
            tw = tower(s.text(), p, q, 10)
            ds = [st.hausdorff_distance(tw[k], tw[k + 1]) for k in range(4, 10)]
            mono = all(a > b for a, b in zip(ds, ds[1:]))
            ok = ok and mono
            details.append("%s(%g,%g):%s" % ("fib" if s is FIB else "metal", p, q,
                                             "ok" if mono else "FAIL"))
    report(7, "Hausdorff convergence", ok, " ".join(details))


def test_criterion_08_sigma_equals_B():
    s = FIB
    params = st.JacobiParams(1.0, 2.0)
    k = 10
    b = tower(s.text(), 1.0, 2.0, 10)[k]
    recipe = st.recipe_from_substitution(s)
    rng = np.random.default_rng(8)
    widths = np.array([hi - lo for lo, hi in b.bands])
    interior = []
    for _ in range(100):
        i = rng.choice(len(b.bands), p=widths / widths.sum())
        lo, hi = b.bands[i]
        interior.append(rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)))
    verdicts = st.dynamical_spectrum_probe(s, params, interior, max_steps=k + 5,
                                           recipe=recipe)
    n_bounded = sum(1 for v in verdicts if v.kind == "bounded-so-far")
    deep = [g for g in b.gaps() if g[1] - g[0] >= 5e-3]
    gap_E = []
    for _ in range(100):
        lo, hi = deep[rng.choice(len(deep))]
        gap_E.append(rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)))
    verdicts = st.dynamical_spectrum_probe(s, params, gap_E, max_steps=k + 5,
                                           recipe=recipe)
    n_escaped = sum(1 for v in verdicts if v.kind == "escaped")
    ok = n_bounded >= 98 and n_escaped == 100
    report(8, "sigma = B consistency", ok,
           "bounded %d/100, escaped %d/100" % (n_bounded, n_escaped))


def test_criterion_09_gap_labeling():
    s = FIB
    alpha = st.rotation_number(s).alpha
    L = 2584
    tw = tower(s.text(), 1.1, 0.3, 12)
    b8, b12 = tw[8], tw[12]
    counter = ids_counter(s, st.JacobiParams(1.1, 0.3), L)
    unmatched = 0
    n_wide = 0
    worst = 0.0
    for j, (g_lo, g_hi) in enumerate(b8.gaps(), start=1):
        if g_hi - g_lo <= 1e-4:
            continue
        n_wide += 1
        m = st.spectrum.combinatorial_gap_label(s, b8, j)
        if abs(m) > 34:
            unmatched += 1
            continue
        # verify against the converged gap position at level 12
        j12 = gap_index_for_label(s, b12, m)
        g12 = b12.gaps()[j12 - 1]
        value = float(counter(0.5 * (g12[0] + g12[1])))
        err = abs(value - (m * alpha) % 1.0)
        worst = max(worst, err)
        if err > 2.0 / L:
            unmatched += 1
    ok = unmatched == 0 and n_wide > 0
    report(9, "gap labeling", ok,
           "%d wide gaps, worst |N - frac(m a)| = %.2e <= %.2e, unmatched %d"
           % (n_wide, worst, 2.0 / L, unmatched))


def test_criterion_10_large_coupling():
    t0 = time.perf_counter()
    rows = st.large_coupling_check([24.0, 32.0], k=12)
    dt = time.perf_counter() - t0
    ok = dt < 300.0
    details = []
    for r in rows:
        rel = abs(r["dim"] - r["asymptote"]) / r["asymptote"]
        ok = ok and rel <= 0.15
        details.append("V=%g dim %.4f vs %.4f (%.1f%%)"
                       % (r["V"], r["dim"], r["asymptote"], 100 * rel))
    report(10, "large-coupling asymptote", ok, "; ".join(details) + ", %.0fs" % dt)


def test_criterion_11_dimension_near_free():
    dists = (0.05, 0.1, 0.2)
    dims = []
    for d in dists:
        b = tower(FIB.text(), 1.0, d, 10)[10]
        dims.append(st.box_dimension(b).value)
    C = max((1.0 - dim) / d for dim, d in zip(dims, dists))
    mono = dims[0] > dims[1] > dims[2]
    lower_ok = all(dim >= 1.0 - C * d - 1e-12 for dim, d in zip(dims, dists))
    ok = mono and lower_ok and 0.0 < C < math.inf
    report(11, "dimension lower bound near (1,0)", ok,
           "dims %s, fitted C = %.3f" % (["%.4f" % v for v in dims], C))


def test_criterion_12_gap_opening_rate():
    res = st.gap_opening_rate(FIB, lambda t: (1.0, t), [0.4, 0.2, 0.1, 0.05],
                              label_m=1, k=10)
    ok = res.stable and res.spread <= 0.10
    report(12, "gap-opening linearity", ok,
           "ratios %s spread %.3f" % (["%.4f" % r for r in res.ratios], res.spread))


def test_criterion_13_p_to_zero_collapse():
    res = st.p_to_zero_scan(FIB, 1.0, [0.5, 0.2, 0.05], k=8)
    rows = res["rows"]
    dims = [r["dim"] for r in rows]
    dists = [r["dist_to_reference"] for r in rows]
    ok = (dims[0] > dims[1] > dims[2]
          and dists[0] > dists[1] > dists[2]
          and dists[2] < 0.05)
    report(13, "p -> 0 collapse", ok,
           "dims %s dists %s" % (["%.3f" % v for v in dims],
                                 ["%.4f" % v for v in dists]))


def test_criterion_14_thickness_and_sum():
    b_small = tower(FIB.text(), 1.0, 0.5, 10)[10]
    b_big = tower(FIB.text(), 1.0, 8.0, 10, 3e-14, 2e-13)[10]
    b_16 = tower(FIB.text(), 1.0, 16.0, 10, 3e-14, 2e-13)[10]
    tau_small = st.thickness(b_small).value
    tau_big = st.thickness(b_big).value
    sum_small = st.band_sum(b_small, b_small)
    sum_16 = st.band_sum(b_16, b_16)
    ok = (tau_small >= 5.0 * tau_big
          and sum_small.band_count == 1
          and sum_16.band_count > 1)
    report(14, "thickness and set sum", ok,
           "tau %.3f vs %.4f (x%.0f), sum bands %d / %d"
           % (tau_small, tau_big, tau_small / tau_big,
              sum_small.band_count, sum_16.band_count))


def test_criterion_15_dos_scaling():
    L = 4181
    results = {}
    for q in (0.5, 0.1):
        params = st.JacobiParams(1.0, q)
        lo, hi = default_energy_range(params)
        span = hi - lo
        summ = st.dos_dimension_summary(FIB, params, 41, L, seed=0,
                                        eps_max=span / 512, n_scales=6)
        bands = tower(FIB.text(), 1.0, q, 16, 1e-13, 1e-12)[16]
        ladder = np.array([span / 512 / 2 ** i for i in range(6)])
        dims = []
        for E in summ.energies:
            chunk = restrict_bands(bands.bands, E - span / 16, E + span / 16)
            if len(chunk) < 2:
                continue
            counts = np.array([box_count(chunk, e) for e in ladder], float)
            good = counts > 0
            dims.append(np.polyfit(np.log(1 / ladder[good]),
                                   np.log(counts[good]), 1)[0])
        results[q] = (summ.d_median, float(np.median(dims)))
    ok = (results[0.5][0] < results[0.5][1]
          and results[0.1][0] < results[0.1][1]
          and results[0.1][0] > results[0.5][0]
          and results[0.1][1] > results[0.5][1])
    report(15, "DOS scaling vs local dimension", ok,
           "q=0.5: d %.4f < dim %.4f; q=0.1: d %.4f < dim %.4f"
           % (results[0.5][0], results[0.5][1], results[0.1][0], results[0.1][1]))


def test_criterion_16_cli_determinism(tmp_path):
    from sturmtrace.cli import main
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["spectrum", "0->01;1->0", "--p", "1.1", "--q", "0.3",
                     "--level", "8", "--out-dir", str(out)])
        assert code == 0
        blobs.append((out / "bands_k8.csv").read_bytes())
        code = main(["dos", "0->01;1->0", "--p", "1.0", "--q", "2.0",
                     "--length", "610", "--grid", "257", "--samples", "3",
                     "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        blobs.append((out / "ids_L610.csv").read_bytes())
    ok = blobs[0] == blobs[2] and blobs[1] == blobs[3]
    report(16, "CLI determinism", ok,
           "%d + %d byte CSVs identical across runs" % (len(blobs[0]), len(blobs[1])))
