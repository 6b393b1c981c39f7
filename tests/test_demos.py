"""Every shipped demo runs to completion as its own process, under a numpy
error state that raises on every floating-point exception and with numpy's
warnings made errors: no answer depends on the caller's numpy state."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    run = ("import numpy, runpy; numpy.seterr(all='raise'); "
           f"runpy.run_path({str(demo)!r}, run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", run],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
