"""The demo scripts run to completion.

Each demo is copied into a temporary directory and run from there, so
whatever it writes to its ``output/`` directory lands beside the copy,
not in the repository.  Demo 02 is left out: it runs MALA for 3-5 s,
and test_sampler covers that path.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_mean_field_fixed_point.py",
    "03_propagation_of_chaos.py",
    "04_tilt_covariance_profile.py",
    "05_reverse_flow_transport.py",
    "06_closed_form_calculators.py",
])
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
