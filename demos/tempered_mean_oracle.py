"""What the estimator is actually estimating: the tempered mean.

The softmin average targets the mean of the probability density proportional
to exp(-alpha f(x)).  As the temperature alpha grows, that density piles up
on the minimizer, and its mean approaches the argmin at rate 1/alpha when f
has some asymmetry (here a cubic perturbation of a parabola).  None of this
involves sampling: the quadrature oracle computes the tempered mean directly
with Simpson's rule, which is how the sampling estimator gets validated.

Run:  python3 demos/tempered_mean_oracle.py
"""

from lisopt import (
    CUBIC_DOMAIN,
    QuadratureSpec,
    benchmark,
    cubic_perturbed_quadratic,
    gibbs_mean,
    laplace_gap,
)
import numpy as np

print("f(x) = x^2 + 0.2 x^3 on [-3, 3]; minimizer x* = 0\n")
print(f"{'alpha':>8}  {'tempered mean':>14}  {'gap = |mean - x*|':>18}  ratio")
alphas = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
gaps = laplace_gap(cubic_perturbed_quadratic, np.zeros(1), CUBIC_DOMAIN, alphas)
prev = None
for alpha, gap in zip(alphas, gaps):
    mean = gibbs_mean(
        cubic_perturbed_quadratic, QuadratureSpec(CUBIC_DOMAIN, 1601, alpha)
    )[0]
    ratio = "" if prev is None else f"{gap / prev:.3f}"
    print(f"{alpha:>8.0f}  {mean:>14.8f}  {gap:>18.3e}  {ratio}")
    prev = gap

print("\nEach doubling of alpha roughly halves the gap (1/alpha decay).")
print("A symmetric objective has no gap at all:")
quad_gap = laplace_gap(benchmark("sphere", 1), np.zeros(1), ((-8.0, 8.0),), [16.0])[0]
print(f"  pure quadratic, alpha=16: gap = {quad_gap:.1e}")
