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


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # a temporary cwd keeps demo_output/ out of the checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[os.path.basename(path)], proc.stdout
