"""The benchmark's own entry points, run against this tree.

``perfbench/probe.py`` is what the benchmark starts in a fresh interpreter:
``setup WORKLOAD`` builds each workload's inputs (a spec loaded from
``configs/``, an external child, an objective) and ``blas BUDGET`` runs
``run_liso`` on a ``StaticConfig``.  A change to the config or spec API that
breaks either fails here, in tier-1, and not only in a benchmark run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"
WORKLOADS = ("adaptive-recovery", "static-rate", "external-child", "oracle-2d")


def run_probe(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(PROBE), *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_sets_up_each_workload(tmp_path, workload):
    out = run_probe(tmp_path, "setup", workload)
    assert out.returncode == 0, out.stderr
    float(out.stdout)  # the time.monotonic() the set-up finished at


def test_probe_blas_prints_a_digest(tmp_path):
    out = run_probe(tmp_path, "blas", "2000")
    assert out.returncode == 0, out.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", out.stdout)
