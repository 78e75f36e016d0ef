"""The golden and bench digests and the oracle's bits, checked at numpy's AVX2
level as well.

On an AVX-512 host numpy can be started on its AVX2 kernels by disabling the
AVX-512 features, and ``np.exp``, ``np.log`` and ``x**3`` then round
differently.  Both digest files hold a table for each level, and the oracle's
outputs are compared with a per-node reference, so running the three files in
a subprocess under that setting checks them at both levels on one machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lisopt
from test_golden_traces import RECORDED_ON, _fingerprint

TESTS = Path(__file__).resolve().parent
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"


def test_digests_hold_under_the_avx2_kernels():
    if _fingerprint() != RECORDED_ON:
        pytest.skip(f"runs on {RECORDED_ON}")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lisopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=AVX2_ONLY)
    files = [str(TESTS / name) for name in
             ("test_golden_traces.py", "test_bench_digests.py", "test_oracle_bits.py")]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
                         cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300)
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else out.stderr
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert "passed" in summary and "skipped" not in summary, summary
