import argparse
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from sturmtrace.cli import CHUNK_ROWS, _write_csv, build_parser, main
from sturmtrace.jacobi import JacobiParams
from sturmtrace.spectrum import default_energy_range

FIB = "0->01;1->0"


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "sturmtrace.cli"] + args,
                          capture_output=True, text=True)
    return proc


def test_subst_report(capsys):
    assert main(["subst", FIB, "--prefix", "50", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["primitive"] is True and report["invertible"] is True
    assert report["alpha_cf_period"] == [1] and report["alpha_cf_preperiod"] == []
    assert len(report["prefix"]) == 50
    assert report["recipe"] == "period=[1]"


def test_subst_reports_a_recipe_with_a_zero_factor(capsys):
    assert main(["subst", "0->01;1->001", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recipe"] == "period=[1,1,0]"


def test_subst_malformed_is_usage_error():
    proc = run_cli(["subst"])
    assert proc.returncode == 2  # argparse usage error
    assert main(["subst", "0->01"]) == 2  # malformed substitution text
    assert main(["subst", "0->01;1->2"]) == 2


def test_spectrum_defaults_and_k0(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["spectrum", FIB, "--p", "1", "--q", "2", "--level", "6",
                 "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["band_count"] == 21
    rows = (out / "bands_k6.csv").read_text().strip().splitlines()
    assert rows[0].strip() == "level,band_lo,band_hi"
    assert len(rows) == 22
    assert main(["spectrum", FIB, "--level", "0", "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["band_count"] == 1
    assert abs(float(report["hull"][0]) + 2.0) < 1e-9


def test_spectrum_unwritable_out_dir():
    assert main(["spectrum", FIB, "--level", "2",
                 "--out-dir", "/proc/definitely/not/writable"]) == 1


@pytest.mark.parametrize("flag, bound", [("--e-min", -1.0), ("--e-max", 1.0)])
def test_spectrum_lone_energy_bound(tmp_path, capsys, flag, bound):
    out = tmp_path / "window"
    assert main(["spectrum", FIB, "--p", "1", "--q", "2", "--level", "6", flag, str(bound),
                 "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["band_count"] < 21  # the bound clipped the 21 bands of k = 6
    lo, hi = default_energy_range(JacobiParams(1.0, 2.0))
    lo, hi = (bound, hi) if flag == "--e-min" else (lo, bound)
    rows = (out / "bands_k6.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == report["band_count"]
    for row in rows:
        _, a, b = (float(v) for v in row.split(","))
        assert lo <= a <= b <= hi


def test_gaps_command(tmp_path, capsys):
    out = tmp_path / "gaps"
    assert main(["gaps", FIB, "--p", "1.0", "--q", "2.0", "--level", "5",
                 "--length", "610", "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gaps"] == 12  # F_7 = 13 bands -> 12 gaps
    assert report["labeled"] >= 10


def test_dims_command(tmp_path, capsys):
    out = tmp_path / "dims"
    assert main(["dims", FIB, "--p", "1", "--q", "2", "--level", "8",
                 "--windows", "4", "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < float(report["dim"]) < 1.0
    assert (out / "dim_profile_k8.csv").exists()


def test_dos_command(tmp_path, capsys):
    out = tmp_path / "dos"
    assert main(["dos", FIB, "--p", "1", "--q", "1", "--length", "610",
                 "--grid", "401", "--samples", "5", "--out-dir", str(out),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < float(report["d_median"]) < 1.3
    lines = (out / "ids_L610.csv").read_text().strip().splitlines()
    assert lines[0].strip() == "E,N"
    assert len(lines) == 402


def test_surface_command(tmp_path, capsys):
    out = tmp_path / "surf"
    assert main(["surface", "--invariant", "0.01", "--resolution", "24",
                 "--out-dir", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bounded_cells"] > 0 and report["escaped_cells"] > 0
    ppm = next(p for p in os.listdir(out) if p.endswith(".ppm"))
    data = (out / ppm).read_bytes()
    assert data.startswith(b"P6\n24 48\n255\n")


def test_surface_outputs_are_pinned(tmp_path):
    # reference digests: a faster classifier or writer must keep both files byte for byte
    out = tmp_path / "surf"
    assert main(["surface", "--invariant", "0.01", "--resolution", "64",
                 "--out-dir", str(out)]) == 0
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest("surface_V0.01.csv") == (
        "34d67918f7942efcd861e7f022502676f366f203d72012c3c174a539fe093098")
    assert digest("surface_V0.01.ppm") == (
        "0fdd64ccb042aafa62d6e829b4568b04912ec614ea3e447cad3bc6fea4802e9b")


# sha256 of the table and raster files of runs that no README line covers:
# the probe's str column at the benchmark's 512 energies, the p_to_zero and
# gap_rate scans, dimension windows with fewer than two bands (empty
# cells), an IDS table with no DOS samples, and both ends of the PPM colour
# table (no root, -1, and bounded, max_steps + 1)
OUTPUT_SHA256 = {
    "scan --kind probe --values 512 --p 1.0 --q 2.0": {
        "scan_probe.csv": "4279fcfefac461b04fc2647d8a89ea6fd78fea5bbdc8ab0620c6beec78434dbf",
    },
    "scan --kind p_to_zero --values 0.5,0.25 --q 1 --level 4": {
        "scan_p_to_zero.csv": "74e9903e4ac288705b0126555f2b2ca58351b0c2e2e3f3f413bd8a63c7683016",
    },
    "scan --kind gap_rate --values 0.4,0.2 --level 6": {
        "scan_gap_rate.csv": "176a2cd546faefb4e272aa83a1d8414fe11db358858b3c4ed0c3a93a22bb83c1",
    },
    "dims --p 1 --q 2 --level 4 --windows 6": {
        "dim_profile_k4.csv": "024db570906ea5523585a6317e2d3788529d4825d7b8a06dbb5a83efd2a43c82",
    },
    "dos --p 1 --q 0.5 --length 89 --samples 0": {
        "ids_L89.csv": "bffc6470d660101e8d9332ae44b112bdf9473d62050e6dc52e8fa4c2ea4b97a0",
    },
    "surface --resolution 16 --max-steps 5": {
        "surface_V0.01.csv": "928734fc72f07964a8995d946a4d382d07da4df88c89e52a4701e53ee7018212",
        "surface_V0.01.ppm": "bf2b23cb388c76cc774157aaf9521af93b9a9b4bc8966f4bc0894ff2777dabbc",
    },
}


@pytest.mark.parametrize("line", sorted(OUTPUT_SHA256))
def test_output_files_are_pinned(tmp_path, capsys, line):
    argv = shlex.split(line)
    if argv[0] != "surface":
        argv.insert(1, FIB)
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in OUTPUT_SHA256[line].items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def _mixed_columns(n):
    """n rows of the cell kinds CLI tables hold, numpy and Python alike."""
    specials = [float("inf"), float("nan"), -0.0, "", np.float64(-1 / 3), 1e22]
    return (
        np.linspace(-4.0, 5.0, n) ** 3,                                 # numpy floats
        [specials[k % 6] if k % 5 == 0 else 0.1 * k for k in range(n)],  # Python floats
        [np.int64(k) if k % 3 else ("" if k % 2 else -k) for k in range(n)],
        ["escaped" if k % 7 else "bounded-so-far" for k in range(n)],
        np.arange(n) * -(2 ** 40),                                      # numpy ints
    )


@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5])
def test_table_writer_matches_csv_module(tmp_path, rows):
    # the rule of the CLI tables: a float as format(float(x), ".17g"), any
    # other cell as the csv module writes it
    header = ("E", "x", "m", "kind", "steps")
    columns = _mixed_columns(rows) if rows else ()
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([format(float(v), ".17g") if isinstance(v, float) else v for v in row])
    _write_csv(tmp_path / "table.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_surface_rejects_zero_max_steps(tmp_path, capsys):
    assert main(["surface", "--resolution", "8", "--max-steps", "0",
                 "--out-dir", str(tmp_path / "surf")]) == 2
    assert capsys.readouterr().err == "usage error: --max-steps takes a step count >= 1, not 0\n"


def test_spectrum_level_past_word_cap_is_computation_error(tmp_path):
    assert main(["spectrum", FIB, "--level", "35", "--out-dir", str(tmp_path)]) == 1


def test_dos_refuses_unchecked_hopping_and_linear_growth(tmp_path):
    assert main(["dos", FIB, "--p", "1e10", "--q", "1", "--length", "610",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["dos", "0->011;1->1", "--p", "1", "--q", "1", "--length", "610",
                 "--out-dir", str(tmp_path)]) == 2


def test_scan_probe_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["scan", FIB, "--kind", "probe", "--values", "64",
                     "--p", "1", "--q", "2", "--out-dir", str(out)]) == 0
    a = (out1 / "scan_probe.csv").read_bytes()
    b = (out2 / "scan_probe.csv").read_bytes()
    assert a == b


def test_scan_probe_defaults_when_values_empty(tmp_path):
    out = tmp_path / "probe_default"
    assert main(["scan", FIB, "--kind", "probe", "--p", "1", "--q", "4",
                 "--out-dir", str(out)]) == 0
    lines = (out / "scan_probe.csv").read_text().strip().splitlines()
    assert len(lines) == 513  # header + default 512-point grid


@pytest.mark.parametrize("values", ["0.5", "0", "-3", "64,128", "abc"])
def test_scan_probe_takes_one_positive_integer(tmp_path, capsys, values):
    out = tmp_path / "probe"
    assert main(["scan", FIB, "--kind", "probe", "--values", values, "--out-dir", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert main(["scan", FIB, "--kind", "probe", "--values", "7", "--out-dir", str(out)]) == 0
    assert len((out / "scan_probe.csv").read_text().strip().splitlines()) == 8


def test_scan_at_unit_coupling_and_without_t_values(tmp_path, capsys):
    out = tmp_path / "lc"
    assert main(["scan", FIB, "--kind", "large_coupling", "--values", "1,-2", "--level", "4",
                 "--out-dir", str(out)]) == 0
    rows = [r.split(",") for r in (out / "scan_large_coupling.csv").read_text().splitlines()]
    assert rows[1][3] == "nan" and float(rows[2][3]) > 0  # no asymptote at |V| = 1
    assert main(["scan", FIB, "--kind", "gap_rate", "--values", "",
                 "--out-dir", str(tmp_path / "gr")]) == 1
    assert "error: need at least one t value" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--values", "1e-9", "--level", "12"], "labels undefined"),   # 1 band, 376 closed gaps
    (["--values", "0.4", "--label-m", "13", "--level", "5"], "has no gap at level 5"),
])
def test_scan_gap_rate_without_its_gap_is_a_computation_error(tmp_path, capsys, flags, message):
    out = tmp_path / "gr"
    assert main(["scan", FIB, "--kind", "gap_rate", "--out-dir", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    argv = ["scan", FIB, "--kind", "gap_rate", "--values", "0.4,0.2", "--level", "6",
            "--out-dir", str(tmp_path)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append((capsys.readouterr().out, (tmp_path / "scan_gap_rate.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_repeat_runs_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["spectrum", FIB, "--p", "1.1", "--q", "0.3", "--level", "7",
                     "--out-dir", str(out)]) == 0
        outs.append((out / "bands_k7.csv").read_bytes())
    assert outs[0] == outs[1]


NON_FINITE_RUNS = [
    ["dos", FIB, "--p", "1", "--q", "nan", "--length", "89", "--grid", "5"],
    ["scan", FIB, "--kind", "probe", "--p", "nan"],
    ["surface", "--invariant", "nan", "--resolution", "8"],
    ["spectrum", FIB, "--q", "inf", "--level", "3"],
    ["gaps", FIB, "--p=-inf", "--level", "3", "--length", "34"],
    ["dims", FIB, "--q", "nan", "--level", "3"],
]


@pytest.mark.parametrize("argv", NON_FINITE_RUNS)
def test_non_finite_inputs_are_computation_errors(tmp_path, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())  # no output file written


@pytest.mark.parametrize("argv", NON_FINITE_RUNS)
def test_refused_command_creates_no_output_directory(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert not out.exists()


class ReadRecorder(argparse.Namespace):
    """A Namespace that records each attribute read once ``_reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


# subst prints its report only; it takes --out-dir so that every subcommand does
UNREAD_BY_DESIGN = {("subst", "out_dir")}


def test_every_accepted_flag_is_read(tmp_path):
    runs = [
        ["subst", FIB, "--prefix", "5", "--scan-beta", "--json"],
        ["spectrum", FIB, "--p", "1", "--q", "2", "--level", "3", "--tol", "1e-10",
         "--e-min", "-1", "--e-max", "1"],
        ["gaps", FIB, "--level", "3", "--tol", "1e-10", "--length", "34", "--m-max", "5",
         "--label-tol", "0.1"],
        ["dims", FIB, "--level", "4", "--tol", "1e-10", "--windows", "2"],
        ["dos", FIB, "--length", "610", "--grid", "9", "--samples", "2", "--seed", "1"],
        ["surface", "--invariant", "0.01", "--resolution", "4", "--max-steps", "5"],
        ["scan", FIB, "--kind", "probe", "--values", "8", "--p", "1", "--q", "2"],
        ["scan", FIB, "--kind", "large_coupling", "--values", "16", "--level", "2"],
        ["scan", FIB, "--kind", "p_to_zero", "--values", "0.5", "--q", "1", "--level", "2"],
        ["scan", FIB, "--kind", "gap_rate", "--values", "0.1,0.2", "--label-m", "1",
         "--level", "5"],
    ]
    ap = build_parser()
    subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {(name, a.dest) for name, sp in subparsers.choices.items()
                for a in sp._actions if a.dest != "help"}
    read = set()
    for i, argv in enumerate(runs):
        args = ap.parse_args(argv + ["--out-dir", str(tmp_path / str(i))],
                             namespace=ReadRecorder())
        handler = args.fn
        args._reads = set()
        assert handler(args) == 0, argv
        read |= {(argv[0], name) for name in object.__getattribute__(args, "_reads")}
    assert {name for name, _ in accepted} == {argv[0] for argv in runs}
    assert accepted - read == UNREAD_BY_DESIGN


def test_gaps_negative_m_max_is_a_computation_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gaps", FIB, "--level", "4", "--length", "89", "--m-max", "-1",
                 "--out-dir", str(out)]) == 1
    assert "error: need m_max >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["dos", FIB, "--p", "2e9", "--length", "89"], "IDS counts are checked for |p| <= 1e+09"),
    (["dos", FIB, "--samples", "3", "--length", "9"], "all samples below resolution"),
    (["scan", FIB, "--kind", "large_coupling", "--values", ""], "need at least one V value"),
    (["scan", FIB, "--kind", "p_to_zero", "--values", " , "], "need at least one p value"),
    (["scan", FIB, "--kind", "gap_rate", "--values", ""], "need at least one t value"),
    (["spectrum", FIB, "--level", "6", "--e-min", "100", "--e-max", "101"],
     "empty band set has no hull"),
    (["spectrum", FIB, "--level", "3", "--tol", "inf"], "tol must be finite and >= 0"),
    (["spectrum", FIB, "--level", "3", "--e-max", "inf"], "energy range must be finite"),
    (["gaps", FIB, "--p", "1.1", "--q", "0.3", "--level", "6", "--length", "987",
      "--label-tol", "-1"], "need tol >= 0"),
    (["gaps", FIB, "--p", "1.1", "--q", "0.3", "--level", "6", "--length", "987",
      "--label-tol", "nan"], "need tol >= 0"),
    (["dims", FIB, "--level", "6", "--windows", "0"], "need window_count >= 1"),
    (["dims", FIB, "--level", "6", "--windows", "-2"], "need window_count >= 1"),
    (["dos", FIB, "--length", "0"], "need L >= 1, got L = 0\n"),
    (["gaps", FIB, "--level", "5", "--length", "0"], "need L >= 1, got L = 0\n"),
])
def test_refused_dos_and_scan_runs_leave_no_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not out.exists()


@pytest.mark.parametrize("grid", ["-3", "0", "1"])
def test_dos_grid_below_two_points_is_a_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert main(["dos", FIB, "--grid", grid, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: --grid takes at least 2 points, not %s\n" % grid
    assert not out.exists()


def _not_reached(*args, **kwargs):
    raise AssertionError("computed before the usage check")


PREFIX_MESSAGE = "--prefix takes a letter count >= 0 (0 for none), not -5"
LEVEL_MESSAGE = "--level takes a level >= 0, not -1"
NEGATIVE_COUNTS = [
    (["subst", FIB, "--prefix", "-5"], PREFIX_MESSAGE),
    (["subst", FIB, "--prefix", "-5", "--scan-beta"], PREFIX_MESSAGE),
    (["dos", FIB, "--samples", "-3"], "--samples takes a count >= 0 (0 for none), not -3"),
    (["dos", FIB, "--samples", "-1"], "--samples takes a count >= 0 (0 for none), not -1"),
    (["dos", FIB, "--samples", "2", "--seed", "-1"], "--seed takes a seed >= 0, not -1"),
    (["spectrum", FIB, "--level", "-1"], LEVEL_MESSAGE),
    (["gaps", FIB, "--level", "-1"], LEVEL_MESSAGE),
    (["dims", FIB, "--level", "-1", "--windows", "3"], LEVEL_MESSAGE),
    (["scan", FIB, "--kind", "large_coupling", "--values", "16", "--level", "-1"], LEVEL_MESSAGE),
    (["scan", FIB, "--kind", "p_to_zero", "--values", "0.5", "--level", "-1"], LEVEL_MESSAGE),
    (["scan", FIB, "--kind", "gap_rate", "--values", "0.4", "--level", "-1"], LEVEL_MESSAGE),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join([argv[0]] + argv[2:]))
    for argv, message in NEGATIVE_COUNTS])
def test_negative_counts_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    # a negative count, seed or level is refused before anything is computed
    monkeypatch.setattr("sturmtrace.cli.parse_substitution", _not_reached)
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--resolution", "1"], "--resolution takes at least 2 points, not 1"),
    (["--resolution", "0"], "--resolution takes at least 2 points, not 0"),
    (["--resolution", "-3"], "--resolution takes at least 2 points, not -3"),
    (["--max-steps", "0"], "--max-steps takes a step count >= 1, not 0"),
    (["--max-steps", "-2"], "--max-steps takes a step count >= 1, not -2"),
    (["--invariant", "nan", "--resolution", "1"], "--resolution takes at least 2 points, not 1"),
])
def test_surface_counts_below_their_floor_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                           argv, message):
    # refused before any raster work, as the other count flags are
    monkeypatch.setattr("sturmtrace.cli.surface_section", _not_reached)
    out = tmp_path / "out"
    assert main(["surface"] + argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: %s\n" % message
    assert not out.exists()


def _raise(*args, **kwargs):
    raise ValueError("patched to fail")


@pytest.mark.parametrize("target, argv", [
    ("sturmtrace.spectrum.BandSet.measure", ["spectrum", FIB, "--level", "5"]),
    ("sturmtrace.fractal.local_dimension_profile", ["dims", FIB, "--level", "5",
                                                    "--windows", "3"]),
])
def test_run_failing_in_its_last_computation_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           target, argv):
    monkeypatch.setattr(target, _raise)
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: patched to fail\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["large_coupling", "p_to_zero", "gap_rate"])
def test_scan_non_numeric_values_are_usage_errors(tmp_path, capsys, kind):
    out = tmp_path / "out"
    assert main(["scan", FIB, "--kind", kind, "--values", "0.5,abc", "--out-dir", str(out)]) == 2
    assert "usage error: scan --kind %s takes comma-separated numbers" % kind \
        in capsys.readouterr().err
    assert not out.exists()


def _readme_commands():
    """The ``sturmtrace ...`` lines of the README's "Command line" section."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.strip().startswith("sturmtrace ")]


# sha256 of the stdout and of each output file of every README command
# line, with the --out-dir path written as the README's "out"
README_SHA256 = {
    "subst '0->01;1->0' --prefix 50": {
        "stdout": "0e9d9277022266cdc9be27f77a951a1bfab18319b92a7e0ab74b5d6d3d98efa6",
    },
    "spectrum '0->01;1->0' --p 1 --q 2 --level 10 --out-dir out": {
        "stdout": "eef70ce559e39e4cdf6a3b6d287ec5770c8c555fc8f94523f95ab509b48ffa97",
        "bands_k10.csv": "a523aa75cc9cab7967b28c27e33d9753f4cade1dd5b13c93eeb63dea95224ac4",
        "bands_k10.json": "9ea835bbb3af42cea45f3ddf1a060d3da2d1e32be1a6db89874fe2b648a4fb1b",
    },
    "gaps '0->01;1->0' --p 1.1 --q 0.3 --level 8 --length 2584 --out-dir out": {
        "stdout": "10f8f5db17883040217d03ec697cd9c1b1116fcf3ff3a74f8ac003c593d845a3",
        "gaps_k8.csv": "ce21ec75d30b0e7fa03905a5c984d231e3d9877c9daf5f5f3ecd27d438aaca78",
    },
    "dims '0->01;1->0' --p 1 --q 2 --level 10 --windows 6 --out-dir out": {
        "stdout": "713908d5224a7961e8508837414130b215bde70e8bdf74fc4c84cb106fd3f5d4",
        "dim_profile_k10.csv": "62f91b1d61d0c6c28e3a3a439c7b970817188cb8527010a2d0fdf394cb7553ea",
        "dims_k10.json": "e8a0ab1597a2fef16fd424c894fd55a0dbbefb1e3dd4f2939007202d38f04e0f",
    },
    "dos '0->01;1->0' --p 1 --q 0.5 --length 4181 --samples 20 --out-dir out": {
        "stdout": "c2619de42ec925ab65623a3fea049b53d4103a83c3e13e6c753f2484cb4db5a4",
        "dos_exponents.json": "30af745f7db3ee8447de54e38f68f5668458b7fa9087de6f371a1e2a393a2a00",
        "ids_L4181.csv": "9622e162a782ebb0bb5ca19521af804a223fd8b0e02dd095e0de681dd46a9e70",
    },
    "surface --invariant 0.01 --resolution 256 --out-dir out": {
        "stdout": "8a777acf8406eedd99ac78a0af9ad3164a01f71ef19931b385384cdd077d6aee",
        "surface_V0.01.csv": "3c68751e14f2ba2d4a3e41fd4e98df17d79a08769efd823f6714a9f2f61303c9",
        "surface_V0.01.ppm": "a9b7722b4668fafe6699e47d1ebc7d3267731267128dd6a99b79c5ea5956d8fb",
    },
    "scan '0->01;1->0' --kind large_coupling --values 24,32 --out-dir out": {
        "stdout": "24ba398ec75c8082828f345d3c4a8ad9aa47cea83c965709b4f2d10c7f3d9e39",
        "scan_large_coupling.csv":
            "ec213eae20b88c8d1fa02e0e4732e2b4981ba3902d47343833fe809228842e03",
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_readme_command_lines_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) >= 7
    assert sorted(README_SHA256) == sorted(shlex.join(argv) for argv in commands)
    for i, argv in enumerate(commands):
        line = shlex.join(argv)
        if "--out-dir" in argv:
            argv = argv[:argv.index("--out-dir")] + argv[argv.index("--out-dir") + 2:]
        out = str(tmp_path / str(i))
        assert main(argv + ["--out-dir", out]) == 0, line
        got = {"stdout": _sha256(capsys.readouterr().out.replace(out, "out").encode())}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    got[name] = _sha256(fh.read().replace(out.encode(), b"out"))
        assert got == README_SHA256[line], line
