"""Workload inputs, tasks and direct layer probes of the sturmtrace benchmark.

``build(name, seed, size, tracer)`` is the benchmark's set-up: it turns
the workload seed into inputs (substitutions, trace-map recipes, period
lengths, fixed-point prefixes, Dirichlet restrictions, CLI argument
lists) and returns the task list.  The package sees only those inputs,
never the seed.  Each task is one closed-loop unit of work; its result
is checked by ``checks.py`` outside the timed region.

Only calls that the planned band-solver, trace-map and DOS rewrites keep
are made, so the benchmark runs unchanged across them: no ``grid=``, no
``half_trace_dual_grid``, no ``spectrum._word_length``, no scalar
``initial_conditions``, no CLI ``--grid`` or ``--threads``; q_k comes
from ``substitution.periodic_word_length``.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from sturmtrace import dos, fractal, jacobi, rotation, spectrum, substitution, tracemap

from speed import median_time

FIBONACCI = "0->01;1->0"
METAL_MEAN = "0->001;1->0"
SWAPPED = "0->1;1->10"

# Strong-coupling tolerances, as in fractal.large_coupling_check
# (Damanik-Embree-Gorodetski-Tcheremchantsev, CMP 2008).
STRONG_TOL, STRONG_MERGE_TOL = 3e-14, 2e-13


@dataclass
class Task:
    name: str
    kind: str          # "band", "scan", "dos-table", "dos-summary" or "cli"
    run: object        # run(tracer) -> result
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    tasks: list
    probes: object = None   # probes(tracer, command_times) -> metrics, traced run only
    min_passes: int = 1     # whole passes a run makes at least, however long they take


def _band_input(tr, subs, text, p, q, k, tol=None, merge_tol=None):
    s = subs[text]
    return {"s": s, "recipe": tr.call(tracemap.recipe_from_substitution, s),
            "params": jacobi.JacobiParams(p, q), "k": k, "tol": tol,
            "merge_tol": merge_tol, "q_k": tr.call(substitution.periodic_word_length, s, k)}


def _parse_all(tr, texts):
    return {t: tr.call(substitution.parse_substitution, t) for t in texts}


def _half_trace_probe(tr, inputs):
    """Direct half_trace_grid throughput at each task's k on 4097 energies."""
    energies, seconds = 0, 0.0
    for inp in inputs:
        lo, hi = spectrum.default_energy_range(inp["params"])
        E = np.linspace(lo, hi, 4097)
        seconds += median_time(lambda: tr.call(spectrum.half_trace_grid, inp["recipe"],
                                               inp["params"], E, inp["k"]), repeats=3)
        energies += E.size
    return {"spectrum.half_trace.energies_per_s": energies / seconds}


# -- bands-deep ------------------------------------------------------------------

def _run_band(inp):
    def run(tr):
        try:
            bands = tr.call(spectrum.floquet_bands, inp["s"], inp["params"], inp["k"],
                            tol=inp["tol"], merge_tol=inp["merge_tol"], recipe=inp["recipe"])
        except spectrum.BandCountError as exc:
            if not inp.get("known_defect"):
                raise
            return {"band_count_error": str(exc)}
        dim = tr.call(fractal.box_dimension, bands)
        tau = tr.call(fractal.thickness, bands)
        return {"bands": bands, "dim": dim, "tau": tau}
    return run


# Parameter draws.  The seed picks points from these tables, never from
# continuous ranges, because the seed's band solver raises BandCountError
# (more bands than the polynomial degree) at some points; a draw that
# raised would fail the run.  Each table was made by drawing uniformly
# from the box in its comment and solving every draw at the highest level
# its workloads use; every draw solved (48 weak, 20 strong, 14 deep), so
# none was dropped.  The
# known raising points are run on purpose, as KNOWN_RAISING.
#
# The weak-coupling box p in [0.8, 1.5], q in [0.3, 2.0] is the hull of
# the (p, q) examples in the README (1, 2), (1.1, 0.3), (1, 0.5) and the
# package tests (1.4, 0.9), (0.8, 1.2), (1.2, 0.7), (1, 1.5), (1.5, 1).
WEAK_POINTS = (  # Fibonacci and swapped to k = 12
    (1.4122, 0.9564), (0.8238, 1.5479), (1.4013, 1.6089), (1.2664, 0.3315), (0.8016, 1.9477),
    (1.4079, 1.534), (0.909, 0.7183), (0.8825, 1.6265), (1.3342, 0.596), (0.819, 1.691),
    (0.895, 0.4173), (0.8833, 0.5429), (1.087, 1.7441), (1.1408, 1.7293), (0.9739, 0.3377),
    (1.2946, 0.3902), (1.1428, 1.2363), (1.2299, 1.4173), (1.2231, 1.7687), (1.1573, 1.5954),
    (0.8763, 0.4019), (1.4446, 0.901), (1.2466, 0.3753), (1.0339, 1.497), (1.3191, 1.7267),
    (1.1553, 1.6447), (1.1285, 1.9861), (1.193, 1.7452), (1.1789, 1.6605), (0.8419, 1.2488),
    (0.9732, 1.7939), (1.3394, 1.5513), (0.8062, 1.9362), (1.3511, 1.2665), (1.3, 0.5267),
    (0.9516, 1.3712), (1.0597, 0.4595), (0.8744, 1.7288), (1.138, 1.554), (1.44, 0.7458),
    (1.4824, 1.2285), (1.3541, 0.5222), (1.1132, 1.9926), (1.3517, 1.668), (1.496, 0.9711),
    (1.295, 1.5059), (1.1451, 1.6797), (1.1128, 1.9751))
# The strong-coupling range V in [16, 40] spans the values that the demos
# and the acceptance test run large_coupling_check at (16, 24, 32).  The
# deep box is +-10% around the README's (1, 2), narrowed because a run
# holds only a few deep solves and their cost depends on (p, q): on a
# 2-CPU Xeon one Fibonacci k = 14 solve took 0.7 s to 1.6 s across the
# documented points above, while k = 15 at this box's corners took 0.8 s
# to 1.2 s.
STRONG_V = (  # Fibonacci Schrodinger (p = 1, q = V) to k = 12 at the strong tolerances
    21.066, 27.688, 36.778, 31.572, 36.155, 37.905, 33.949, 24.97, 33.931, 29.563,
    20.751, 21.081, 39.07, 26.357, 29.294, 38.897, 33.258, 39.824, 22.138, 32.793)
DEEP_POINTS = (  # Fibonacci k = 15, swapped k = 14 and metal-mean k = 9
    (0.934, 2.162), (0.9562, 2.0942), (0.9466, 2.197), (1.0479, 2.1021), (1.0238, 1.9264),
    (0.9112, 2.1556), (1.0872, 1.8538), (0.9129, 1.9192), (1.009, 2.1992), (0.996, 2.1304),
    (1.0776, 2.1343), (0.9859, 1.8494), (1.0945, 1.9538), (0.9839, 2.0898))

# Points where the seed's solver raises BandCountError: level 7 of the
# metal-mean tower finds 578 bands against degree 577.  Run in bands-deep
# and counted as spectrum.band_count_errors rather than as failures, so the
# defect shows and its fix can be measured.
KNOWN_RAISING = ((METAL_MEAN, 1.0, 0.5287, 7),)


def _pick(rng, table, n=1):
    return [table[i] for i in rng.choice(len(table), size=n, replace=False)]


def build_bands_deep(tr, rng, size):
    subs = _parse_all(tr, (FIBONACCI, METAL_MEAN, SWAPPED))
    if size == "min":
        pinned, draws = [], [(FIBONACCI, 8), (METAL_MEAN, 4), (SWAPPED, 7)]
    else:
        # The two cases where the solver is known to drop bands; always run.
        pinned = [(METAL_MEAN, 1.5, 1.0, 10, None), (FIBONACCI, 1.0, 0.1, 16, 1e-13)]
        draws = [(FIBONACCI, 15), (FIBONACCI, 15), (METAL_MEAN, 9), (SWAPPED, 13),
                 (SWAPPED, 14), (SWAPPED, 14)]
    inputs = [_band_input(tr, subs, t, p, q, k, tol) for t, p, q, k, tol in pinned]
    inputs += [dict(_band_input(tr, subs, *case), known_defect=True) for case in KNOWN_RAISING]
    for (text, k), (p, q) in zip(draws, _pick(rng, DEEP_POINTS, len(draws))):
        inputs.append(_band_input(tr, subs, text, p, q, k))
    tasks = [Task("%s p=%.4g q=%.4g k=%d" % (inp["s"], inp["params"].p, inp["params"].q,
                                             inp["k"]),
                  "band", _run_band(inp), inp) for inp in inputs]
    # single solves vary by 15% run to run; two passes give every task two samples
    return Workload("bands-deep", tasks, lambda t, _times: _half_trace_probe(t, inputs),
                    min_passes=2)


# -- scan-shallow ----------------------------------------------------------------

SCAN_L = 1597


def _run_scan(inp):
    def run(tr):
        s, params, k = inp["s"], inp["params"], inp["k"]
        bands = tr.call(spectrum.floquet_bands, s, params, k, tol=inp["tol"],
                        merge_tol=inp["merge_tol"], recipe=inp["recipe"])
        lo, hi = bands.hull()
        pad = 0.05 * (hi - lo)
        mids = [0.5 * (a + b) for a, b in bands.gaps()]
        grid = np.unique(np.concatenate([np.linspace(lo - pad, hi + pad, 1024), mids]))
        table = tr.call(dos.ids, s, params, SCAN_L, grid)
        labeled = tr.call(spectrum.gaps_with_labels, bands, table, inp["alpha"],
                          m_max=34, tol=2.0 / SCAN_L)
        dim = tr.call(fractal.box_dimension, bands)
        tau = tr.call(fractal.thickness, bands)
        profile = tr.call(fractal.local_dimension_profile, s, params, k, 6, bands=bands)
        return {"bands": bands, "table": table, "labeled": labeled, "dim": dim,
                "tau": tau, "profile": profile}
    return run


def build_scan_shallow(tr, rng, size):
    texts = (FIBONACCI, SWAPPED)
    subs = _parse_all(tr, texts)
    alphas = {t: tr.call(rotation.rotation_number, subs[t]).alpha for t in texts}
    n_weak, n_strong = (2, 1) if size == "min" else (16, 8)
    inputs = [_band_input(tr, subs, texts[i % 2], p, q, 8 + i % 5)
              for i, (p, q) in enumerate(_pick(rng, WEAK_POINTS, n_weak))]
    inputs += [_band_input(tr, subs, FIBONACCI, 1.0, V, 8 + i % 5, STRONG_TOL, STRONG_MERGE_TOL)
               for i, V in enumerate(_pick(rng, STRONG_V, n_strong))]
    for inp in inputs:
        inp["alpha"] = alphas[inp["s"].text()]
        inp["L"] = SCAN_L
        # the truncation the IDS check compares against
        inp["spec"] = tr.call(jacobi.dirichlet_restriction, inp["params"],
                              tr.call(substitution.fixed_point_prefix, inp["s"], SCAN_L))
    tasks = [Task("%s p=%.4g q=%.4g k=%d" % (inp["s"], inp["params"].p, inp["params"].q,
                                             inp["k"]),
                  "scan", _run_scan(inp), inp) for inp in inputs]
    return Workload("scan-shallow", tasks, lambda t, _times: _half_trace_probe(t, inputs))


# -- dos-sturm -------------------------------------------------------------------

def _run_summary(inp):
    def run(tr):
        return tr.call(dos.dos_dimension_summary, inp["s"], inp["params"],
                       inp["samples"], inp["L"], seed=inp["draw_seed"])
    return run


def _run_table(inp):
    def run(tr):
        return tr.call(dos.ids, inp["s"], inp["params"], inp["L"], inp["grid"])
    return run


def _sturm_probe(tr, inputs):
    wide = narrow = 0.0
    wide_n = narrow_n = 0
    for inp in inputs:
        spec, grid, L = inp["spec"], inp["grid"], inp["L"]
        wide += median_time(lambda: tr.call(jacobi.eigen_count_below_grid, spec, grid),
                            repeats=3)
        wide_n += L * grid.size
        E = np.linspace(grid[0], grid[-1], 12)
        narrow += median_time(lambda: [tr.call(jacobi.eigen_count_below_grid, spec, E)
                                       for _ in range(3)], repeats=3)
        narrow_n += L * E.size * 3
    return {"jacobi.sturm_wide.site_energies_per_s": wide_n / wide,
            "jacobi.sturm_narrow.site_energies_per_s": narrow_n / narrow}


def build_dos_sturm(tr, rng, size):
    texts = (FIBONACCI, METAL_MEAN)
    subs = _parse_all(tr, texts)
    lengths, samples, points = ((987, 1597), 5, 257) if size == "min" else ((4181, 6765), 21, 4097)
    inputs = []
    for text in texts:
        s = subs[text]
        # the weak-coupling box of WEAK_POINTS; the Sturm counter cannot raise
        params = jacobi.JacobiParams(float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.3, 2.0)))
        lo, hi = tr.call(spectrum.default_energy_range, params)
        prefix = tr.call(substitution.fixed_point_prefix, s, max(lengths))
        for L in lengths:
            inputs.append({"s": s, "params": params, "L": L, "samples": samples,
                           "draw_seed": int(rng.integers(2 ** 31)),
                           "grid": np.linspace(lo, hi, points),
                           "spec": tr.call(jacobi.dirichlet_restriction, params, prefix[:L])})
    tasks = []
    for inp in inputs:
        label = "%s p=%.4g q=%.4g L=%d" % (inp["s"], inp["params"].p, inp["params"].q, inp["L"])
        tasks.append(Task("summary " + label, "dos-summary", _run_summary(inp), inp))
        tasks.append(Task("table " + label, "dos-table", _run_table(inp), inp))
    return Workload("dos-sturm", tasks, lambda t, _times: _sturm_probe(t, inputs))


# -- cli -------------------------------------------------------------------------

CLI_COMMANDS = ("subst", "spectrum", "gaps", "dims", "dos", "surface", "scan")


def _run_cli(cli, command, argv, out_dir):
    import contextlib
    import io

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli." + command):
                code = cli.main(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "out_dir": out_dir}
    return run


# The README's parameters for each command; the seed draws the DOS sample
# seed.  Drawing more (the surface invariant, say) moved the run time by
# more than the machine noise without exercising anything new.
CLI_PARAMS = {"spectrum": (1.0, 2.0), "gaps": (1.1, 0.3), "dims": (1.0, 2.0), "dos": (1.0, 0.5),
              "scan": (1.0, 2.0)}


def _cli_library(tr, s, sz):
    """The library work of each CLI command on the same inputs, for cli.overhead_s."""
    par = {c: jacobi.JacobiParams(p, q) for c, (p, q) in CLI_PARAMS.items()}

    def gaps():
        params = par["gaps"]
        lo, hi = spectrum.default_energy_range(params)
        bands = tr.call(spectrum.floquet_bands, s, params, sz["gaps_level"])
        mids = [0.5 * (a + b) for a, b in bands.gaps()]
        grid = np.unique(np.concatenate([np.linspace(lo, hi, 2049), mids]))
        table = tr.call(dos.ids, s, params, sz["gaps_length"], grid)
        alpha = tr.call(rotation.rotation_number, s).alpha
        tr.call(spectrum.gaps_with_labels, bands, table, alpha, m_max=34,
                tol=2.0 / sz["gaps_length"])

    def dims():
        bands = tr.call(spectrum.floquet_bands, s, par["dims"], sz["level"])
        tr.call(fractal.box_dimension, bands)
        tr.call(fractal.thickness, bands)
        tr.call(fractal.local_dimension_profile, s, par["dims"], sz["level"], 6, bands=bands)

    def dos_():
        lo, hi = spectrum.default_energy_range(par["dos"])
        tr.call(dos.ids, s, par["dos"], sz["dos_length"], np.linspace(lo, hi, 4096))
        tr.call(dos.dos_dimension_summary, s, par["dos"], sz["samples"], sz["dos_length"],
                seed=sz["dos_seed"])

    return {
        "subst": lambda: (tr.call(rotation.rotation_number, s),
                          tr.call(tracemap.recipe_from_substitution, s),
                          tr.call(substitution.fixed_point_prefix, s, 50)),
        "spectrum": lambda: tr.call(spectrum.floquet_bands, s, par["spectrum"], sz["level"]),
        "gaps": gaps,
        "dims": dims,
        "dos": dos_,
        "surface": lambda: tr.call(tracemap.surface_section, sz["invariant"], sz["resolution"]),
        "scan": lambda: tr.call(spectrum.dynamical_spectrum_probe, s, par["scan"],
                                _probe_energies(sz), recipe=sz["recipe"]),
    }


def _probe_energies(sz):
    lo, hi = spectrum.default_energy_range(jacobi.JacobiParams(*CLI_PARAMS["scan"]))
    return np.linspace(lo, hi, sz["energies"])


def _cli_probe(tr, s, sz, command_times):
    lib_times = {c: median_time(fn) for c, fn in _cli_library(tr, s, sz).items()}
    n = sz["energies"]
    xs, ys, zs = jacobi.initial_conditions_grid(jacobi.JacobiParams(*CLI_PARAMS["scan"]),
                                                _probe_energies(sz))
    t = median_time(lambda: tr.call(tracemap.classify_batch, sz["recipe"], xs, ys, zs,
                                    max_steps=200, escape_norm=1e3), repeats=5)
    return {"cli.overhead_s": sum(command_times.values()) - sum(lib_times.values()),
            "tracemap.surface_section_s": lib_times["surface"],
            "spectrum.probe.energies_per_s": n / lib_times["scan"],
            "tracemap.classify_batch.points_per_s": n / t}


def build_cli(tr, rng, size, workdir):
    from sturmtrace import cli

    if size == "min":
        sz = {"level": 6, "gaps_level": 5, "gaps_length": 233, "dos_length": 377,
              "samples": 5, "resolution": 32, "energies": 64}
    else:
        sz = {"level": 10, "gaps_level": 8, "gaps_length": 2584, "dos_length": 4181,
              "samples": 20, "resolution": 256, "energies": 512}
    sz["dos_seed"] = int(rng.integers(2 ** 31))
    sz["invariant"] = 0.01
    pq = {c: ["--p", repr(p), "--q", repr(q)] for c, (p, q) in CLI_PARAMS.items()}
    argvs = {
        "subst": ["subst", FIBONACCI, "--prefix", "50"],
        "spectrum": ["spectrum", FIBONACCI, "--level", str(sz["level"])] + pq["spectrum"],
        "gaps": ["gaps", FIBONACCI, "--level", str(sz["gaps_level"]),
                 "--length", str(sz["gaps_length"])] + pq["gaps"],
        "dims": ["dims", FIBONACCI, "--level", str(sz["level"]), "--windows", "6"] + pq["dims"],
        "dos": ["dos", FIBONACCI, "--length", str(sz["dos_length"]),
                "--samples", str(sz["samples"]), "--seed", str(sz["dos_seed"])] + pq["dos"],
        "surface": ["surface", "--invariant", repr(sz["invariant"]),
                    "--resolution", str(sz["resolution"])],
        "scan": ["scan", FIBONACCI, "--kind", "probe", "--values", str(sz["energies"])]
                + pq["scan"],
    }
    tasks = []
    for command in CLI_COMMANDS:
        out_dir = os.path.join(workdir, command)
        argv = argvs[command] + ["--out-dir", out_dir, "--json"]
        tasks.append(Task("cli " + command, "cli", _run_cli(cli, command, argv, out_dir),
                          {"command": command, "argv": argv}))
    s = tr.call(substitution.parse_substitution, FIBONACCI)
    sz["recipe"] = tr.call(tracemap.recipe_from_substitution, s)
    return Workload("cli", tasks, lambda t, times: _cli_probe(t, s, sz, times))


def build(name, seed, size, tr, workdir):
    rng = np.random.default_rng(seed)
    tr.task = "setup"
    if name == "bands-deep":
        wl = build_bands_deep(tr, rng, size)
    elif name == "scan-shallow":
        wl = build_scan_shallow(tr, rng, size)
    elif name == "dos-sturm":
        wl = build_dos_sturm(tr, rng, size)
    elif name == "cli":
        wl = build_cli(tr, rng, size, workdir)
    else:
        raise ValueError("unknown workload %r" % name)
    tr.task = None
    return wl
