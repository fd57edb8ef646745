"""sturmtrace benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (nothing to build; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload bands-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's inputs from ``--seed``, then runs its task
list in a closed loop (one process, one thread, each task starting when
the previous one ends) until ``--seconds`` have passed and every task
has run at least once.  The outputs are checked outside the timed
region.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers by name and unit, the machine facts, and the
correctness counters.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the task list, records one span per call
into a public function of a sturmtrace module, writes the spans to
``.perfbench/`` and reports the per-layer metrics.  There is no queue
and no second worker, so no layer has a waiting time to report.

``--smoke`` runs every workload at its minimum size with both trace
settings and checks the output schema and the correctness checks, never
the times.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("bands-deep", "scan-shallow", "dos-sturm", "cli")
LAYERS = ("substitution", "rotation", "tracemap", "jacobi", "spectrum", "dos", "fractal", "cli")
CLI_COMMANDS = ("subst", "spectrum", "gaps", "dims", "dos", "surface", "scan")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3

# Which end-to-end metric each per-layer metric is expected to move, and
# on which workloads.  The metric names, units and directions themselves
# are read from BENCHMARK.json, whose entries admit no further keys.
MOVES = {
    "substitution.self_s": ("setup_s", "dos-sturm"),
    "rotation.self_s": ("setup_s", "scan-shallow"),
    "tracemap.self_s": ("wall_s", "cli"),
    "jacobi.self_s": ("wall_s", "dos-sturm"),
    "spectrum.self_s": ("wall_s", "bands-deep, scan-shallow"),
    "dos.self_s": ("wall_s", "dos-sturm, scan-shallow"),
    "fractal.self_s": ("wall_s", "scan-shallow"),
    "cli.self_s": ("wall_s", "cli"),
    "spectrum.solve_s": ("wall_s", "bands-deep, scan-shallow"),
    "spectrum.solve_s_per_level": ("wall_s", "bands-deep, scan-shallow"),
    "spectrum.bands_per_s": ("wall_s", "bands-deep, scan-shallow"),
    "spectrum.half_trace.energies_per_s": ("wall_s", "bands-deep"),
    "spectrum.labels_s": ("wall_s", "scan-shallow"),
    "spectrum.probe.energies_per_s": ("wall_s", "cli"),
    "tracemap.surface_section_s": ("wall_s", "cli"),
    "tracemap.classify_batch.points_per_s": ("wall_s", "cli"),
    "jacobi.sturm_wide.site_energies_per_s": ("wall_s", "dos-sturm"),
    "jacobi.sturm_narrow.site_energies_per_s": ("wall_s", "dos-sturm"),
    "dos.table_s": ("wall_s", "dos-sturm, scan-shallow"),
    "dos.summary_s": ("wall_s", "dos-sturm"),
    "dos.samples_per_s": ("wall_s", "dos-sturm"),
    "fractal.box_dimension_s": ("wall_s", "scan-shallow"),
    "fractal.thickness_s": ("wall_s", "scan-shallow"),
    "fractal.profile_s": ("wall_s", "scan-shallow"),
    "cli.overhead_s": ("wall_s", "cli"),
    "cli.bytes_written": ("wall_s", "cli"),
    "cli.import_s": ("setup_s", "all"),
}
MOVES.update(("cli.%s_s" % c, ("wall_s", "cli")) for c in CLI_COMMANDS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _require_package():
    if not os.path.isfile(os.path.join(SRC, "sturmtrace", "__init__.py")):
        sys.exit("perfbench: no sturmtrace package under %s; run from a checkout" % SRC)
    sys.path.insert(0, SRC)


def _child(args, mode):
    """Run this script in a fresh interpreter and return its last stdout line as JSON."""
    argv = [sys.executable, os.path.abspath(__file__), mode,
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _facts(seed):
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"seed": seed, "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def _fingerprint(task, result):
    """What must repeat exactly across executions of one task."""
    if task.kind != "cli":
        return repr(result)
    import hashlib

    files = {}
    out_dir = result["out_dir"]
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return repr((result["code"], result["stdout"], files))


def timed_loop(tasks, seconds, tracer, trace, min_passes=1):
    """Closed loop over the task list; returns per-task times and first results.

    The loop ends once ``seconds`` have passed and ``min_passes`` whole
    passes are done.  With tracing, even passes run untraced and odd
    passes traced, so the two walls are measured in the same run; one
    pass of each is the minimum then.  Task times are scaled by the
    speed kernel run between tasks (speed.py); the raw times are kept
    beside them.
    """
    from speed import Clock

    n = len(tasks)
    clock = Clock()
    execs = []   # (task index, traced, start, end)
    first, prints, failed = [None] * n, [None] * n, [0] * n
    errors = []
    rounds = 2 if trace else min_passes
    start = time.perf_counter()
    i = 0
    while True:
        r, j = divmod(i, n)
        if r >= rounds and time.perf_counter() - start >= seconds:
            break
        i += 1
        clock.tick()
        tracer.enabled = trace and r % 2 == 1
        tracer.task = (j, r)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.task"):
                result = tasks[j].run(tracer)
        except Exception as exc:  # a failing task is counted, the loop goes on
            tracer.enabled = False
            failed[j] += 1
            errors.append("%s: %s: %s" % (tasks[j].name, type(exc).__name__, exc))
            continue
        t1 = time.perf_counter()
        execs.append((j, tracer.enabled, t0, t1))
        tracer.enabled = False
        fp = _fingerprint(tasks[j], result)
        if first[j] is None:
            first[j], prints[j] = result, fp
        elif fp != prints[j]:
            failed[j] += 1
            errors.append("%s: result changed between executions" % tasks[j].name)
    clock.tick(force=True)
    tracer.task = None
    times = {key: [[] for _ in tasks] for key in ("untraced", "traced", "raw")}
    for j, on, t0, t1 in execs:
        times["traced" if on else "untraced"][j].append((t1 - t0) * clock.scale(t0, t1))
        if not on:
            times["raw"][j].append(t1 - t0)
    return dict(times, first=first, failed=failed, errors=errors, executions=i,
                ref_s=clock.median())


def _sum_of_medians(samples):
    return sum(statistics.median(s) for s in samples if s)


def run_checks(wl, loop, seed):
    """Correctness checks and counters, outside the timed region."""
    import numpy as np

    import checks

    cache = {}
    counters = {"band_deficit": 0, "band_count_errors": 0, "gaps_labeled": 0,
                "dos_skipped": 0, "bytes_written": 0, "bands": 0, "levels": 0, "samples": 0}
    problems = []
    bad_tasks = set()
    for j, (task, result) in enumerate(zip(wl.tasks, loop["first"])):
        if result is None:
            continue
        rng = np.random.default_rng([seed, j])
        found = checks.check(task, result, rng, cache)
        if found:
            bad_tasks.add(j)
            problems += ["%s: %s" % (task.name, p) for p in found]
        if checks.raised_known_defect(result):
            # a pinned known defect (workloads.KNOWN_RAISING): counted, not failed
            counters["band_count_errors"] += 1
        elif task.kind in ("band", "scan"):
            bands = result["bands"]
            counters["band_deficit"] += task.info["q_k"] - bands.band_count
            counters["bands"] += bands.band_count
            counters["levels"] += task.info["k"] + 1
        if task.kind == "scan":
            counters["gaps_labeled"] += sum(g.label_m is not None for g in result["labeled"])
        if task.kind == "dos-summary":
            counters["dos_skipped"] += result.skipped
            counters["samples"] += task.info["samples"]
        if task.kind == "cli":
            counters["bytes_written"] += checks.cli_outputs(result, task.info["command"])[1]
    return counters, problems, bad_tasks


def layer_metrics(wl, loop, tracer, counters, probes, import_s, attempted, failed):
    from spans import aggregate

    totals, span_failed = aggregate(tracer.spans)
    t = lambda key: totals.get(key, (0.0, 0))[0]
    rate = lambda num, den: num / den if den > 0 else 0.0
    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = t(layer)
        m[layer + ".calls"] = totals.get(layer, (0.0, 0))[1]
        m[layer + ".failed"] = span_failed.get(layer, 0)
    solve = t("spectrum.floquet_bands")
    summary = t("dos.dos_dimension_summary")
    m.update({
        "spectrum.solve_s": solve,
        "spectrum.solve_s_per_level": rate(solve, counters["levels"]),
        "spectrum.bands_per_s": rate(counters["bands"], solve),
        "spectrum.half_trace.energies_per_s": 0.0,
        "spectrum.labels_s": t("spectrum.gaps_with_labels"),
        "spectrum.probe.energies_per_s": 0.0,
        "spectrum.band_deficit": counters["band_deficit"],
        "spectrum.band_count_errors": counters["band_count_errors"],
        "spectrum.gaps_labeled": counters["gaps_labeled"],
        "tracemap.surface_section_s": 0.0,
        "tracemap.classify_batch.points_per_s": 0.0,
        "jacobi.sturm_wide.site_energies_per_s": 0.0,
        "jacobi.sturm_narrow.site_energies_per_s": 0.0,
        "dos.table_s": t("dos.ids"),
        "dos.summary_s": summary,
        "dos.samples_per_s": rate(counters["samples"], summary),
        "dos.skipped": counters["dos_skipped"],
        "fractal.box_dimension_s": t("fractal.box_dimension"),
        "fractal.thickness_s": t("fractal.thickness"),
        "fractal.profile_s": t("fractal.local_dimension_profile"),
        "cli.overhead_s": 0.0,
        "cli.bytes_written": counters["bytes_written"],
        "cli.import_s": import_s,
        "bench.self_s": t("bench"),
        "bench.speed_kernel_s": loop["ref_s"],
        "bench.fail_ratio": rate(failed, attempted),
        "trace.overhead_s": (_sum_of_medians(loop["traced"])
                             - _sum_of_medians(loop["untraced"])),
    })
    for c in CLI_COMMANDS:
        m["cli.%s_s" % c] = t("cli." + c)
    m.update(probes)
    return m


def run(args):
    _require_package()
    import shutil

    import speed
    from spans import Tracer, aggregate
    import workloads

    os.makedirs(OUT, exist_ok=True)
    trace = bool(args.trace)
    if not trace:
        setup_samples = [_child(args, "--setup-only")["setup_s"]
                         for _ in range(1 if args.size == "min" else SETUP_SAMPLES)]
        print("setup samples (scaled): " + " ".join("%.4f" % s for s in setup_samples))
    tracer = Tracer(enabled=trace)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    try:
        wl = workloads.build(args.workload, args.seed, args.size, tracer, workdir)
        passes = 1 if args.size == "min" else wl.min_passes
        loop = timed_loop(wl.tasks, args.seconds, tracer, trace, passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = {}
        if trace and wl.probes:
            totals = aggregate(tracer.spans)[0]
            command_times = {c: totals.get("cli." + c, (0.0, 0))[0] for c in CLI_COMMANDS}
            tracer.enabled, tracer.task = True, "probe"
            probes = wl.probes(tracer, command_times)
            tracer.enabled, tracer.task = False, None
        counters, problems, bad_tasks = run_checks(wl, loop, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = loop["executions"]
    # a task whose result fails its check fails in every execution
    failed = sum(f + (len(loop["untraced"][j]) + len(loop["traced"][j]) if j in bad_tasks else 0)
                 for j, f in enumerate(loop["failed"]))
    facts = _facts(args.seed)
    print("facts: " + json.dumps(facts, sort_keys=True))
    print("workload %s: %d tasks, %d executions, closed loop, 1 process, 1 thread"
          % (args.workload, len(wl.tasks), attempted))
    print("fail_ratio %d/%d; band_deficit %d; band_count_errors %d; dos_skipped %d; "
          "gaps_labeled %d" % (failed, attempted, counters["band_deficit"],
                               counters["band_count_errors"], counters["dos_skipped"],
                               counters["gaps_labeled"]))
    for task, runs in zip(wl.tasks, loop["untraced"]):
        if runs:
            print("task %-40s scaled median %.4f s of %d untraced" % (
                task.name, statistics.median(runs), len(runs)))
    for msg in loop["errors"] + problems:
        print("FAILED " + msg)
    if trace:
        import_s = statistics.median(_child(args, "--import-only")["import_s"]
                                     for _ in range(1 if args.size == "min" else IMPORT_SAMPLES))
        values = layer_metrics(wl, loop, tracer, counters, probes, import_s, attempted, failed)
        path = os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"facts": facts, "workload": args.workload,
                       "tasks": [t.name for t in wl.tasks], "spans": tracer.records()}, fh)
        print("spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
        print("waiting time: not reported; there is no queue and no second worker")
    else:
        medians = [statistics.median(s) for s in loop["untraced"] if s]
        print("raw wall %.6g s; speed kernel median %.6g s against %.6g s nominal"
              % (_sum_of_medians(loop["raw"]), loop["ref_s"], speed.REF_SECONDS))
        values = {"setup_s": statistics.median(setup_samples), "wall_s": sum(medians),
                  "peak_rss_mb": peak_rss_mb}
        print("task_p50_s %.6g s: median over %d tasks of each task's scaled median (not gated)"
              % (statistics.median(medians) if medians else 0.0, len(medians)))
    spec = _spec()["per_layer" if trace else "end_to_end"]
    for m in spec:
        moves = " moves %s on %s" % MOVES[m["name"]] if m["name"] in MOVES else ""
        print("%-42s %16.6g %-6s%s" % (m["name"], values[m["name"]], m["unit"], moves))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_only(args):
    """Fresh-interpreter set-up: import sturmtrace and build the inputs.

    The time is scaled by REF / (this interpreter's own ``import numpy``
    time), REF being speed.NUMPY_IMPORT_SECONDS.  On a shared 2-CPU Xeon
    machine the raw set-up time of fresh interpreters moved by up to 60%
    from minute to minute, and the speed kernel did not follow it; its
    ratio to the NumPy import in the same interpreter stayed within 7%.
    No change to sturmtrace alters NumPy's import, so the scaled time
    still moves with sturmtrace's import and the build.
    """
    _require_package()
    from spans import Tracer

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import workloads  # imports sturmtrace

    workloads.build(args.workload, args.seed, args.size, Tracer(),
                    os.path.join(OUT, "setup-%d" % os.getpid()))
    t2 = time.perf_counter()
    import speed

    print(json.dumps({"setup_s": (t2 - t0) * speed.NUMPY_IMPORT_SECONDS / (t1 - t0),
                      "raw_s": t2 - t0, "numpy_import_s": t1 - t0}))
    return 0


def import_only(_args):
    _require_package()
    t0 = time.perf_counter()
    import sturmtrace.cli  # noqa: F401

    print(json.dumps({"import_s": time.perf_counter() - t0}))
    return 0


def _schema_problem(proc, units):
    """What is wrong with one run's exit code and result line, or None."""
    if proc.returncode != 0:
        return "exit code %d" % proc.returncode
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no JSON result line"
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(out)
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        return "correct %r, %r of %r failed" % (out["correct"], out["failed"], out["attempted"])
    if {n: v.get("unit") for n, v in out["metrics"].items()} != units:
        return "metric names or units differ from BENCHMARK.json"
    if not all(isinstance(v.get("value"), (int, float)) for v in out["metrics"].values()):
        return "a metric value is not a number"
    return None


def smoke(_args):
    """Every workload at minimum size, both trace settings: schema and checks only."""
    spec = _spec()
    bad = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "min"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            label = "%s trace=%d" % (workload, trace)
            problem = _schema_problem(proc, {m["name"]: m["unit"] for m in spec[key]})
            if problem:
                bad.append("%s: %s\n%s%s" % (label, problem, proc.stdout, proc.stderr))
            print("smoke %-22s %s" % (label, "FAIL" if problem else "ok"))
    for msg in bad:
        print(msg, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "min"), default="full",
                    help="min: the smallest inputs of each workload, for the smoke mode")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="schema and correctness check")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # One thread, as the load model says.  Left alone, OpenBLAS starts a
    # pool of one thread per CPU when NumPy is imported; on a 2-CPU machine
    # that doubled NumPy's import time and made it swing with the load on
    # the other CPU.  Children of this process inherit the setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    if args.import_only:
        return import_only(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
