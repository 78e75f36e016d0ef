"""The ``lisopt oracle`` outputs, pinned bit for bit to a per-node reference.

``cubic_perturbed_quadratic`` evaluates a whole grid as ``x * x + 0.2 * x**3``
in numpy.  The reference evaluates the same formula on one node at a time, in
Python floats.  numpy's AVX-512 ``x**3`` rounds differently from Python's
``pow`` at a few nodes of the default grid, so ``tests/test_simd_levels.py``
runs this file at numpy's AVX2 level as well.
"""

import numpy as np
import pytest

from lisopt import CUBIC_DOMAIN, Objective, QuadratureSpec, gibbs_mean, laplace_gap
from lisopt.cli import main
from lisopt.objectives import format_float

# The temperatures of demos/tempered_mean_oracle.py; 16 is the CLI's default.
DEMO_ALPHAS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def per_node_cubic():
    return Objective(1, lambda P: np.array([v * v + 0.2 * v**3 for v in P[:, 0].tolist()]))


def oracle_stdout(capsys, *argv):
    assert main(["oracle", "--fn", "quad-cubic", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("alpha", DEMO_ALPHAS)
def test_tempered_mean_is_the_per_node_references(capsys, alpha):
    mean = gibbs_mean(per_node_cubic(), QuadratureSpec(CUBIC_DOMAIN, 1601, alpha))
    out = oracle_stdout(capsys, "--alpha", format_float(alpha))
    assert out == f"tempered mean: {format_float(mean[0])}\n"


@pytest.mark.parametrize("alphas", [DEMO_ALPHAS[:5], DEMO_ALPHAS], ids=["to_64", "to_128"])
def test_gaps_are_the_per_node_references(capsys, alphas):
    gaps = laplace_gap(per_node_cubic(), [0.0], CUBIC_DOMAIN, alphas)
    out = oracle_stdout(capsys, "--alphas", ",".join(map(format_float, alphas)))
    assert out == "".join(f"alpha={format_float(a)} gap={format_float(g)}\n"
                          for a, g in zip(alphas, gaps))
