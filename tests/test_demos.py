"""The demo scripts run to completion from an empty reference cache.

Demo 04 computes every stiff problem's window start and reference from a
cold cache; about 1 s of its run goes to them.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_method_design", "02_stability_domain", "03_linear_weld",
         "04_stiff_problems", "05_burgers_stage_hunt", "06_stage_doubling")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TSRK_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    # The demos write their CSV and JSON files into the working directory.
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
