import glob
import os
import subprocess
import sys

import pytest

import lisopt

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # Each demo is a script over the public API; it must run to the end.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lisopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LISOPT_WORKERS="1")
    # The suite's warning policy (pyproject.toml) holds for the demos too.
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", os.path.abspath(demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
