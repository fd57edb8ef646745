import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
# sha256 of each demo's stdout, which prints no paths and no timings
STDOUT_SHA256 = {
    "01_substitutions.py": "540a47a59fbe9b449eb8fea4c4008f35b0633dbcbd87f2149d7e36571341e1f6",
    "02_trace_map_orbits.py": "32676c6cfccf0137e139d2f5737c6929242aa59e72d0bbef014146641b98ae9d",
    "03_band_spectra.py": "b095b48814577e396825be7b03f860a9b52aac43052261edcb69f9e328636be2",
    "04_fractal_dimensions.py": "107473c7ebc472be4d87d96aaf693b9114ac1fdfbf9e1711fad04dc552ed913a",
    "05_density_of_states.py": "847af6b97cbb3675bc6a2187f3fc909264195720938c5146d54dedd49aaf614f",
}


def test_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(STDOUT_SHA256) == [os.path.basename(p) for p in DEMOS]


def _run(path, cwd):
    """Run a script in a subprocess, in cwd, with the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, path], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # a temporary cwd keeps demo_output/ out of the checkout
    proc = _run(path, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[os.path.basename(path)], proc.stdout


def test_readme_quick_start_runs(tmp_path):
    # the README's one ```python block, the library quick start, as a script
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = fh.read().split("```python\n")
    assert len(blocks) == 2
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[1].split("```", 1)[0])
    proc = _run(str(script), tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
