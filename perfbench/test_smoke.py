"""Tests of the benchmark itself: schema, correctness checks, refusal without sources.

They never look at times.  Run with ``python3 -m pytest perfbench``.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402


def test_smoke_mode_passes_schema_and_correctness_checks():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" ok") == 2 * len(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_label_check_catches_a_wrong_label():
    import dataclasses

    import numpy as np

    import checks
    import workloads
    from spans import Tracer

    wl = workloads.build("scan-shallow", 1, "min", Tracer(), None)
    task = wl.tasks[0]
    result = task.run(Tracer())
    assert result["bands"].band_count == task.info["q_k"]
    assert checks.check(task, result, np.random.default_rng(0), {}) == []
    labeled = list(result["labeled"])
    j = next(i for i, g in enumerate(labeled) if g.label_m is not None)
    labeled[j] = dataclasses.replace(labeled[j], label_m=labeled[j].label_m + 1)
    bad = checks.labels(labeled, task.info, result["bands"])
    assert len(bad) == 1 and "combinatorial label" in bad[0]
