"""Command-line front door: subst, spectrum, gaps, dims, dos, surface, scan.

All configuration is flags-only; every floating value is printed with 17
significant digits so repeated runs diff cleanly.  A CSV table has CRLF
line ends, floats as ``%.17g``, an empty cell for a missing value and no
quoted fields (no cell holds a comma, a quote or a line break); the
tests pin the bytes of every kind of table the commands write.  Each
command computes everything it reports first and then hands its files
and report to :func:`_finish`, so a refused run writes nothing.  Exit
codes: 0 on success, 2 on usage errors, 1 on computation errors.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import fractal
from .dos import dos_dimension_summary, ids
from .jacobi import JacobiParams
from .rotation import rotation_number, scan_beta
from .spectrum import (default_energy_range, dynamical_spectrum_probe, floquet_bands,
                       gaps_with_labels)
from .substitution import SubstitutionError, fixed_point_prefix, parse_substitution
from .tracemap import MAX_STEPS_BANDS, recipe_from_substitution, surface_section

F17 = lambda x: format(float(x), ".17g")
CHUNK_ROWS = 1024   # table rows formatted and written at a time


class UsageError(Exception):
    """A flag value the command cannot take (exit code 2)."""


def _write_csv(path, header, columns):
    """A table as CSV: the header, then its rows in chunks of CHUNK_ROWS, one write each.

    ``columns`` holds one sequence (list, tuple or numpy array) per header
    name, all of one length, or nothing for a table of no rows.  Each chunk
    is formatted a column at a time: a float cell as ``"%.17g"``, any other
    cell with ``str``.  A numpy column is read through ``.tolist()``, so
    its cells are Python floats and ints.  The bytes are those of
    ``csv.writer`` (comma, CRLF line ends, QUOTE_MINIMAL) fed the same
    cells, as long as no cell holds a comma, a quote, CR or LF (none is
    quoted here), no cell is None (``csv`` writes an empty cell) and no
    row is one empty cell (``csv`` writes ``""``).  No CLI table has
    such a cell or row.
    """
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, CHUNK_ROWS):
            cells = [_cells(c[start:start + CHUNK_ROWS]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cells(column):
    """The CSV cells of one column: floats as %.17g, everything else by str."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return ["%.17g" % v if isinstance(v, float) else str(v) for v in column]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(args, report, *files):
    """The output step: write each (path, writer, *data), print the report, return 0.

    ``--out-dir`` is created only when there are files to write.
    """
    if files:
        os.makedirs(args.out_dir, exist_ok=True)
    for path, write, *data in files:
        write(path, *data)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for k, v in report.items():
            print("%s: %s" % (k, v))
    return 0


def cmd_subst(args):
    if args.prefix < 0:
        raise UsageError("--prefix takes a letter count >= 0 (0 for none), not %d" % args.prefix)
    s = parse_substitution(args.substitution)
    report = {
        "substitution": s.text(),
        "primitive": s.primitive,
        "invertible": s.invertible,
        "abelianization": [list(r) for r in s.abelianization],
    }
    if s.primitive and s.invertible:
        rot = rotation_number(s)
        recipe = recipe_from_substitution(s)
        report["alpha"] = F17(rot.alpha)
        report["alpha_cf_preperiod"] = list(rot.cf_preperiod)
        report["alpha_cf_period"] = list(rot.cf_period)
        report["recipe"] = recipe.text()
        if args.scan_beta:
            report["beta_scan"] = scan_beta(s, n_letters=args.prefix or 50)
    if args.prefix:
        report["prefix"] = fixed_point_prefix(s, args.prefix)
    return _finish(args, report)


def _check_level(args):
    if args.level < 0:
        raise UsageError("--level takes a level >= 0, not %d" % args.level)


def cmd_spectrum(args):
    _check_level(args)
    s = parse_substitution(args.substitution)
    params = JacobiParams(args.p, args.q)
    e_range = None
    if args.e_min is not None or args.e_max is not None:
        # a lone bound keeps the spectrum hull's other end
        lo, hi = default_energy_range(params)
        e_range = (lo if args.e_min is None else args.e_min,
                   hi if args.e_max is None else args.e_max)
    bands = floquet_bands(s, params, args.level, e_range=e_range, tol=args.tol)
    csv_path = os.path.join(args.out_dir, "bands_k%d.csv" % args.level)
    summary = {
        "substitution": s.text(),
        "p": F17(params.p),
        "q": F17(params.q),
        "k": args.level,
        "band_count": bands.band_count,
        "measure": F17(bands.measure()),
        "hull": [F17(v) for v in bands.hull()],
        "csv": csv_path,
    }
    return _finish(args, summary,
                   (csv_path, _write_csv, ("level", "band_lo", "band_hi"),
                    ([bands.level] * bands.band_count, bands.edges[:, 0], bands.edges[:, 1])),
                   (os.path.join(args.out_dir, "bands_k%d.json" % args.level), _write_json,
                    summary))


def cmd_gaps(args):
    _check_level(args)
    s = parse_substitution(args.substitution)
    params = JacobiParams(args.p, args.q)
    bands = floquet_bands(s, params, args.level, tol=args.tol)
    lo, hi = default_energy_range(params)
    # labels read the IDS at gap midpoints only
    mids = 0.5 * (bands.edges[:-1, 1] + bands.edges[1:, 0])
    table = ids(s, params, args.length, np.unique(np.concatenate([[lo, hi], mids])))
    alpha = rotation_number(s).alpha
    tol = args.label_tol if args.label_tol is not None else 2.0 / args.length
    labeled = gaps_with_labels(bands, table, alpha, m_max=args.m_max, tol=tol)
    path = os.path.join(args.out_dir, "gaps_k%d.csv" % args.level)
    rows = [(g.lo, g.hi, g.width, g.ids_value,
             "" if g.label_m is None else g.label_m,
             g.label_value if not math.isnan(g.label_value) else "")
            for g in labeled]
    matched = sum(1 for g in labeled if g.label_m is not None)
    return _finish(args, {"gaps": len(labeled), "labeled": matched, "alpha": F17(alpha),
                          "csv": path},
                   (path, _write_csv,
                    ("gap_lo", "gap_hi", "width", "ids", "label_m", "label_value"),
                    list(zip(*rows))))


def cmd_dims(args):
    _check_level(args)
    s = parse_substitution(args.substitution)
    params = JacobiParams(args.p, args.q)
    bands = floquet_bands(s, params, args.level, tol=args.tol)
    est = fractal.box_dimension(bands)
    tau = fractal.thickness(bands)
    report = {
        "dim": F17(est.value), "stderr": F17(est.stderr),
        "scale_min": F17(est.scale_min), "scale_max": F17(est.scale_max),
        "thickness": F17(tau.value), "band_count": bands.band_count,
        "measure": F17(bands.measure()),
    }
    files = [(os.path.join(args.out_dir, "dims_k%d.json" % args.level), _write_json, report)]
    if args.windows != 1:
        profile = fractal.local_dimension_profile(s, params, args.level,
                                                  args.windows, bands=bands)
        rows = [(center, "" if e is None else e.value, "" if e is None else e.stderr)
                for center, e in profile]
        report["profile_csv"] = os.path.join(args.out_dir, "dim_profile_k%d.csv" % args.level)
        files.append((report["profile_csv"], _write_csv, ("E_center", "dim", "stderr"),
                      list(zip(*rows))))
    return _finish(args, report, *files)


def cmd_dos(args):
    if args.grid < 2:
        raise UsageError("--grid takes at least 2 points, not %d" % args.grid)
    if args.samples < 0:
        raise UsageError("--samples takes a count >= 0 (0 for none), not %d" % args.samples)
    if args.seed < 0:
        raise UsageError("--seed takes a seed >= 0, not %d" % args.seed)
    s = parse_substitution(args.substitution)
    params = JacobiParams(args.p, args.q)
    lo, hi = default_energy_range(params)
    table = ids(s, params, args.length, np.linspace(lo, hi, args.grid))
    path = os.path.join(args.out_dir, "ids_L%d.csv" % args.length)
    report = {"L": args.length, "csv": path}
    files = [(path, _write_csv, ("E", "N"), (table.e_grid, table.n_values))]
    if args.samples:
        summary = dos_dimension_summary(s, params, args.samples, args.length, seed=args.seed)
        report.update({
            "d_min": F17(summary.d_min), "d_median": F17(summary.d_median),
            "d_max": F17(summary.d_max), "skipped": summary.skipped,
        })
        files.append((os.path.join(args.out_dir, "dos_exponents.json"), _write_json, report))
    return _finish(args, report, *files)


def cmd_surface(args):
    if args.resolution < 2:
        raise UsageError("--resolution takes at least 2 points, not %d" % args.resolution)
    if args.max_steps < 1:
        raise UsageError("--max-steps takes a step count >= 1, not %d" % args.max_steps)
    raster = surface_section(args.invariant, args.resolution,
                             max_steps=args.max_steps)
    base = os.path.join(args.out_dir, "surface_V%s" % F17(args.invariant))
    steps, max_steps = raster["steps"], raster["max_steps"]
    return _finish(args, {"csv": base + ".csv", "ppm": base + ".ppm",
                          "bounded_cells": int((steps > max_steps).sum()),
                          "escaped_cells": int(((steps >= 0) & (steps <= max_steps)).sum())},
                   (base + ".csv", _write_surface_csv, raster),
                   (base + ".ppm", _write_ppm, raster))


def _write_surface_csv(path, raster):
    """The raster as (sheet, x, y, steps) CSV rows, one raster row per write.

    Each write joins the row's cells from the sheet's "sheet,x," heads,
    the row's "y," and a table of the step strings, so no cell is
    formatted on its own and the file is never whole in memory.
    """
    xs = [F17(v) for v in raster["x"]]
    width = len(xs)
    # steps[n] for every count n in -1 .. max_steps + 1 (the last entry is -1)
    steps = ["%d\r\n" % n for n in range(raster["max_steps"] + 2)] + ["-1\r\n"]
    cells = [None] * (3 * width)   # head, y, steps of each cell in turn
    with open(path, "w", newline="") as fh:
        fh.write("sheet,x,y,steps\r\n")
        for sheet, block in enumerate(raster["steps"]):
            cells[0::3] = ["%d,%s," % (sheet, x) for x in xs]
            for yv, row in zip(raster["y"], block):
                cells[1::3] = [F17(yv) + ","] * width
                cells[2::3] = [steps[n] for n in row.tolist()]
                fh.write("".join(cells))


def _write_ppm(path, raster):
    """The raster as a binary PPM, each pixel coloured by its step count.

    An escape after n steps shades from red (n = 0) to green (n =
    max_steps), a bounded pixel (max_steps + 1) is blue, and one with no
    root (-1) black.  Each channel is one small table indexed by step
    count, with the -1 entry last, so the raster indexes it directly.
    """
    steps = raster["steps"]
    max_steps = raster["max_steps"]
    sheets, h, w = steps.shape
    t = np.arange(max_steps + 1) / float(max_steps)
    colours = np.zeros((3, max_steps + 3), dtype=np.uint8)
    colours[0, :max_steps + 1] = (255 * (1 - t)).astype(np.uint8)
    colours[1, :max_steps + 1] = (200 * t).astype(np.uint8)
    colours[2, max_steps + 1] = 200
    img = np.empty((sheets, h, w, 3), dtype=np.uint8)
    for channel, table in enumerate(colours):
        img[..., channel] = table[steps]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, sheets * h))
        fh.write(img.tobytes())


def _probe_grid_size(text):
    """The energy count of ``scan --kind probe``: one positive integer, 512 if empty."""
    if not text.strip():
        return 512
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise UsageError("scan --kind probe takes one positive integer in --values "
                         "(the energy count), not %r" % text)
    return n


def cmd_scan(args):
    if args.kind != "probe":   # the probe does not read --level
        _check_level(args)
    s = parse_substitution(args.substitution)
    if args.kind == "probe":
        n = _probe_grid_size(args.values)
    else:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise UsageError("scan --kind %s takes comma-separated numbers in --values, not %r"
                             % (args.kind, args.values)) from None
        if not values:
            what = {"large_coupling": "V", "p_to_zero": "p"}.get(args.kind, "t")
            raise ValueError("need at least one %s value" % what)
    if args.kind == "large_coupling":
        name, header = "scan_large_coupling.csv", ("V", "dim", "stderr", "asymptote", "bands")
        rows = fractal.large_coupling_check(values, k=args.level, s=s)
        columns = [[r[h] for r in rows] for h in header]
    elif args.kind == "p_to_zero":
        rows = fractal.p_to_zero_scan(s, args.q, values, k=args.level)["rows"]
        name, header = "scan_p_to_zero.csv", ("p", "dim", "measure", "dist_to_reference")
        columns = [[r[h] for r in rows] for h in header]
    elif args.kind == "gap_rate":
        res = fractal.gap_opening_rate(s, lambda t: (1.0, t), values,
                                       label_m=args.label_m, k=args.level)
        name, header = "scan_gap_rate.csv", ("t", "width", "ratio")
        columns = (res.t_values, res.widths, res.ratios)
    else:  # probe: escape classification along an energy grid
        params = JacobiParams(args.p, args.q)
        lo, hi = default_energy_range(params)
        energies = np.linspace(lo, hi, n)
        verdicts = dynamical_spectrum_probe(s, params, energies)
        name, header = "scan_probe.csv", ("E", "kind", "steps")
        columns = (energies, [v.kind for v in verdicts], [v.steps_used for v in verdicts])
    path = os.path.join(args.out_dir, name)
    return _finish(args, {"csv": path}, (path, _write_csv, header, columns))


def _add_common(sp, with_params=True, with_level=False, with_tol=False):
    sp.add_argument("--out-dir", default=".", help="output directory")
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    if with_params:
        sp.add_argument("--p", type=float, default=1.0, help="hopping on letter 1")
        sp.add_argument("--q", type=float, default=0.0, help="potential on letter 1")
    if with_level:
        sp.add_argument("--level", type=int, default=8, help="periodic approximation level")
    if with_tol:
        sp.add_argument("--tol", type=float, default=None, help="band edge tolerance")


@functools.cache
def build_parser():
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(prog="sturmtrace",
                                 description="substitution Jacobi spectra via trace maps")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subst", help="inspect a substitution")
    p.add_argument("substitution")
    p.add_argument("--prefix", type=int, default=0)
    p.add_argument("--scan-beta", action="store_true")
    _add_common(p, with_params=False)
    p.set_defaults(fn=cmd_subst)

    p = sub.add_parser("spectrum", help="periodic-approximation band set")
    p.add_argument("substitution")
    p.add_argument("--e-min", type=float, default=None)
    p.add_argument("--e-max", type=float, default=None)
    _add_common(p, with_level=True, with_tol=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("gaps", help="gap labeling against the IDS")
    p.add_argument("substitution")
    p.add_argument("--length", type=int, default=2584, help="IDS truncation L")
    p.add_argument("--m-max", type=int, default=34)
    p.add_argument("--label-tol", type=float, default=None)
    _add_common(p, with_level=True, with_tol=True)
    p.set_defaults(fn=cmd_gaps)

    p = sub.add_parser("dims", help="box dimension and thickness")
    p.add_argument("substitution")
    p.add_argument("--windows", type=int, default=1)
    _add_common(p, with_level=True, with_tol=True)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("dos", help="integrated density of states")
    p.add_argument("substitution")
    p.add_argument("--length", type=int, default=987)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--grid", type=int, default=4096, help="IDS table grid points (at least 2)")
    p.add_argument("--seed", type=int, default=0, help="seed of the DOS sample energies")
    _add_common(p)
    p.set_defaults(fn=cmd_dos)

    p = sub.add_parser("surface", help="escape-time raster of S_V")
    p.add_argument("--invariant", type=float, default=0.01, help="Fricke-Vogt value V")
    p.add_argument("--resolution", type=int, default=128, help="grid points per axis (at least 2)")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS_BANDS,
                   help="trace-map blocks per pixel (at least 1)")
    _add_common(p, with_params=False)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("scan", help="batch scans (large_coupling, p_to_zero, gap_rate, probe)")
    p.add_argument("substitution")
    p.add_argument("--kind", choices=["large_coupling", "p_to_zero", "gap_rate", "probe"],
                   required=True)
    p.add_argument("--values", default="",
                   help="comma-separated scan values; for --kind probe one positive "
                        "integer, the energy count (default 512)")
    p.add_argument("--label-m", type=int, default=1)
    _add_common(p, with_level=True)
    p.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SubstitutionError, UsageError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
