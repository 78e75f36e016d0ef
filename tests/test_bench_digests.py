"""Pinned output bytes of ``lisopt bench`` on the two sphere d=4 specs.

Each digest is the sha256 of the CSV and the SVG that ``lisopt bench`` writes
for a shipped config cut to 5 trials and a small budget, with
``LISOPT_WORKERS`` 1 and 2.  The digests were recorded before the harness ran
``liso`` and ``random_search`` from one shared draw per trial; they prove that
the shared draw, the per-trial task and the worker count move no output bit.

The bits depend on numpy's SIMD kernels, so the digests only apply on the
platforms they were recorded on: an AVX-512 host, and the same host running
numpy's AVX2 kernels (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``).
"""

import hashlib
from pathlib import Path

import pytest

from lisopt import ExperimentSpec
from lisopt.cli import main
from test_golden_traces import RECORDED_ON, RECORDED_ON_X86_V3, _fingerprint

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config -> budget of the cut-down spec
BUDGETS = {"sphere_static_d4": 20000, "sphere_adaptive_d4": 9000}
TRIALS = 5

DIGESTS = {
    "sphere_adaptive_d4": "71e5617be89fe67ff4b4c7e0861acffd9653ef4863b24e63140bec49172c2e39",
    "sphere_static_d4": "18a166cdf95689ee0bcec5e0958d8540ad971827ebffdb95d4f2ba5f2546065d",
}

DIGESTS_X86_V3 = {
    "sphere_adaptive_d4": "8f8f034f8cbf026131a40b6fb4d74f2a8a683de4c178ad8b3921323d9d02cb0a",
    "sphere_static_d4": "02d5dfeac68f3a87837b0d2f8a1b92c4f6c9daa3243bec93e7aeb484f578b0e5",
}

TABLES = {RECORDED_ON: DIGESTS, RECORDED_ON_X86_V3: DIGESTS_X86_V3}


def bench_digest(name, workers, workdir, monkeypatch):
    """sha256 of the CSV then the SVG that ``lisopt bench`` writes for ``name``."""
    spec = ExperimentSpec.from_yaml(str(CONFIGS / f"{name}.yaml"))
    spec.budget = BUDGETS[name]
    spec.trials = TRIALS
    spec.csv_out = str(workdir / f"{name}.csv")
    spec.svg_out = str(workdir / f"{name}.svg")
    path = workdir / f"{name}.yaml"
    spec.to_yaml(str(path))
    monkeypatch.setenv("LISOPT_WORKERS", str(workers))
    assert main(["bench", "--config", str(path)]) == 0
    h = hashlib.sha256()
    h.update(Path(spec.csv_out).read_bytes())
    h.update(Path(spec.svg_out).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_bench_bytes_are_pinned(name, workers, tmp_path, monkeypatch, capsys):
    table = TABLES.get(_fingerprint())
    if table is None:
        pytest.skip(f"digests recorded on {' and '.join(TABLES)}")
    assert bench_digest(name, workers, tmp_path, monkeypatch) == table[name]


if __name__ == "__main__":
    # Prints the DIGESTS table for the current tree.
    import tempfile

    for name in sorted(BUDGETS):
        digests = set()
        for workers in (1, 2):
            with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
                digests.add(bench_digest(name, workers, Path(tmp), mp))
        assert len(digests) == 1, f"{name}: worker counts disagree"
        print(f'    "{name}": "{digests.pop()}",')
