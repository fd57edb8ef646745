"""Correctness checks of task results, run outside the timed region.

Band tasks: at a seeded sample of band edges, a 60-digit mpmath transfer
product over the period word must put |x_k| - 1 on opposite sides of
zero at the edge -/+ the solve's tolerance.  IDS and DOS tasks: Sturm
counts at seeded energies must equal the eigenvalue counts of
``scipy.linalg.eigvalsh_tridiagonal`` on the same truncation.  Gap
labels: each label attached by ``gaps_with_labels`` must equal the
combinatorial label of its gap.  CLI
tasks: exit code 0, JSON on stdout, and every output file parses (CSV
header and row widths, JSON, PPM header and size).

Each check returns a list of problems; an empty list means the result
passed.
"""

import csv
import json
import math
import os

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from sturmtrace import jacobi, spectrum, substitution

EDGE_BANDS = 2        # bands sampled per band set; both edges of each are checked
IDS_ENERGIES = 4      # energies checked per IDS table


def half_trace_mp(word, params, E, dps=60):
    """x(E) = tr/2 of the transfer product over one period, cyclic successor."""
    with mpmath.workdps(dps):
        E = mpmath.mpf(E)
        hop = {"0": mpmath.mpf(1), "1": mpmath.mpf(params.p)}
        pot = {"0": mpmath.mpf(0), "1": mpmath.mpf(params.q)}
        # top row of T = (1/p') [[E - q, -1], [p'^2, 0]] for each (letter, successor)
        top = {(a, b): ((E - pot[a]) / hop[b], -1 / hop[b]) for a in "01" for b in "01"}
        m00, m01, m10, m11 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        n = len(word)
        for i in range(n):
            nxt = word[(i + 1) % n]
            a, b = top[word[i], nxt]
            c = hop[nxt]
            m00, m01, m10, m11 = a * m00 + b * m10, a * m01 + b * m11, c * m00, c * m01
        return (m00 + m11) / 2


def band_edges(result, inp, rng):
    bands = result["bands"]
    word = substitution.periodic_word(inp["s"], inp["k"])
    tol = bands.edge_tol
    problems = []
    picks = rng.choice(bands.band_count, size=min(EDGE_BANDS, bands.band_count), replace=False)
    for i in sorted(int(i) for i in picks):
        a, b = bands.bands[i]
        mid = 0.5 * (a + b)
        for edge, inside, outside in ((a, min(a + tol, mid), a - tol),
                                      (b, max(b - tol, mid), b + tol)):
            x_in = abs(half_trace_mp(word, inp["params"], inside))
            x_out = abs(half_trace_mp(word, inp["params"], outside))
            if not (x_in <= 1 < x_out):
                problems.append("band %d edge %.17g: |x| inside %.3g, outside %.3g (tol %.3g)"
                                % (i, edge, float(x_in), float(x_out), tol))
    return problems


def _eigenvalues(spec, cache):
    key = id(spec)
    if key not in cache:
        cache[key] = (spec, eigvalsh_tridiagonal(np.asarray(spec.diag, dtype=float),
                                                 np.asarray(spec.offdiag[1:], dtype=float)))
    return cache[key][1]


def sturm_counts(spec, energies, counts, cache):
    """Compare counts of eigenvalues <= E with a dense tridiagonal eigensolver.

    Energies within 1e-9 of an eigenvalue are skipped: there the two
    methods may round to different sides.
    """
    eig = _eigenvalues(spec, cache)
    problems = []
    for E, c in zip(energies, counts):
        if np.min(np.abs(eig - E)) < 1e-9:
            continue
        want = int(np.searchsorted(eig, E, side="right"))
        if int(c) != want:
            problems.append("count at E=%.17g: %d, eigensolver %d" % (E, int(c), want))
    return problems


def ids_table(table, spec, rng, cache):
    idx = rng.choice(len(table.e_grid), size=IDS_ENERGIES, replace=False)
    energies = [table.e_grid[i] for i in idx]
    counts = [round(table.n_values[i] * table.L) for i in idx]
    return sturm_counts(spec, energies, counts, cache)


def labels(labeled, inp, bands):
    """Each attached label must equal the gap's combinatorial label.

    ``spectrum.combinatorial_gap_label`` finds the label of the gap with
    j bands below it by counting alone, with no IDS evaluation; it is
    defined only when the band set is complete (band_count == q_k), so
    incomplete band sets are left to the band_deficit counter.
    """
    if bands.band_count != inp["q_k"]:
        return []
    problems = []
    for j, g in enumerate(labeled, start=1):
        if g.label_m is None:
            continue
        m = spectrum.combinatorial_gap_label(inp["s"], bands, j, recipe=inp["recipe"])
        if g.label_m != m:
            problems.append("gap %d at %.17g: label %d, combinatorial label %d"
                            % (j, g.lo, g.label_m, m))
    return problems


def summary(result, inp, cache):
    problems = []
    if result.skipped + len(result.exponents) != inp["samples"]:
        problems.append("%d exponents + %d skipped != %d samples"
                        % (len(result.exponents), result.skipped, inp["samples"]))
    if not all(math.isfinite(d) for d in result.exponents):
        problems.append("non-finite exponent")
    if not result.d_min <= result.d_median <= result.d_max:
        problems.append("exponent summary out of order")
    energies = np.asarray(result.energies, dtype=float)
    counts = jacobi.eigen_count_below_grid(inp["spec"], energies)
    return problems + sturm_counts(inp["spec"], energies, counts, cache)


EXPECTED_FILES = {"subst": 0, "spectrum": 2, "gaps": 1, "dims": 2, "dos": 2,
                  "surface": 2, "scan": 1}


def _parse_file(path):
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or not all(rows[0]):
            return "missing CSV header"
        if any(len(r) != len(rows[0]) for r in rows):
            return "ragged CSV rows"
    elif path.endswith(".json"):
        with open(path) as fh:
            json.load(fh)
    elif path.endswith(".ppm"):
        with open(path, "rb") as fh:
            data = fh.read()
        magic, dims, depth, pixels = data.split(b"\n", 3)
        w, h = (int(v) for v in dims.split())
        if magic != b"P6" or depth != b"255" or len(pixels) != 3 * w * h:
            return "bad PPM header or size"
    else:
        return "unexpected output file"
    return None


def cli_outputs(result, command):
    """Problems with one CLI run, and the bytes its output files hold."""
    problems = []
    if result["code"] != 0:
        problems.append("exit code %r: %s" % (result["code"], result["stderr"].strip()))
    try:
        json.loads(result["stdout"])
    except ValueError:
        problems.append("stdout is not JSON")
    out_dir = result["out_dir"]
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if len(names) != EXPECTED_FILES[command]:
        problems.append("%d output files, expected %d" % (len(names), EXPECTED_FILES[command]))
    written = 0
    for name in names:
        path = os.path.join(out_dir, name)
        written += os.path.getsize(path)
        try:
            bad = _parse_file(path)
        except (ValueError, UnicodeDecodeError) as exc:
            bad = str(exc)
        if bad:
            problems.append("%s: %s" % (name, bad))
    return problems, written


def raised_known_defect(result):
    """Whether a pinned known-defect task raised BandCountError, as expected."""
    return isinstance(result, dict) and "band_count_error" in result


def check(task, result, rng, cache):
    """Problems found in one task's result (empty when it is correct)."""
    inp = task.info
    if raised_known_defect(result):
        return []   # counted as band_count_errors instead
    if task.kind == "band":
        return band_edges(result, inp, rng)
    if task.kind == "scan":
        return (band_edges(result, inp, rng)
                + ids_table(result["table"], inp["spec"], rng, cache)
                + labels(result["labeled"], inp, result["bands"]))
    if task.kind == "dos-table":
        return ids_table(result, inp["spec"], rng, cache)
    if task.kind == "dos-summary":
        return summary(result, inp, cache)
    return cli_outputs(result, inp["command"])[0]
