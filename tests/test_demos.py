"""The demo scripts run to completion from an empty reference cache, and the
README's library quick start and command-line block run as written.

Demo 04 computes every stiff problem's window start and reference from a
cold cache; about 1 s of its run goes to them.
"""
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tsrk.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_method_design", "02_stability_domain", "03_linear_weld",
         "04_stiff_problems", "05_burgers_stage_hunt", "06_stage_doubling")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, child_env):
    # The demos write their CSV and JSON files into the working directory.
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=child_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(capsys):
    # In this process, so the records come from the session's cache.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    l_s, err_const, endpoint_error, stable_length = map(float, capsys.readouterr().out.split())
    assert (round(l_s, 4), round(err_const, 5)) == (47.5779, 0.32949)  # as its comments say
    assert 0.0 < endpoint_error < 1e-3 and 0.0 < stable_length <= l_s


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # In this process too; each line writes its --out file into tmp_path.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "tsrk"
        assert main(argv) == 0, (line, capsys.readouterr().err)
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), line
