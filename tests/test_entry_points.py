"""The command line run as a user starts it: a fresh interpreter per test.

`python -m fermibox` and `python -m fermibox.cli` must run the CLI and keep
its exit codes, and importing the CLI or running a command that integrates
nothing must not pull in scipy.integrate or scipy.optimize, the largest
pieces of start-up before the limit kernels moved to closed forms.
"""

import json
import os
import subprocess
import sys

import pytest

import fermibox

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fermibox.__file__)))
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
SPECTRUM = ["spectrum", "--bc", "dirichlet", "--count", "3"]


def python(*args, cwd):
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["fermibox", "fermibox.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    out = tmp_path / "spectrum.json"
    proc = python("-m", module, *SPECTRUM, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "spectrum" and len(doc["modes"]) == 3
    bad = python("-m", module, "spectrum", "--bc", "dirichlet", cwd=tmp_path)
    assert bad.returncode == 1
    assert "usage error" in bad.stderr


def test_cli_start_up_leaves_out_integrate_and_optimize(tmp_path):
    probe = ("import json, sys\n"
             "import fermibox.cli\n"
             "loaded = lambda: sorted(m for m in sys.modules\n"
             "                        if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize']))\n"
             "after_import = loaded()\n"
             "code = fermibox.cli.run(sys.argv[1:])\n"
             "print(json.dumps([code, after_import, loaded()]))\n")
    proc = python("-c", probe, *SPECTRUM, "--out", str(tmp_path / "s.json"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert after_import == [] and after_run == []
