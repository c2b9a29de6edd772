"""Estimate the selection-gain CDF with the particle evaluator.

Compares three routes to the same curve: exact-model Monte Carlo, direct
simulation of the fitted surrogate, and the particle flow that prices each
threshold as a product of conditional survival probabilities.  The particle
route shines at deep lower-tail thresholds where direct simulation wastes
almost every draw.
"""

import numpy as np

from faschan import (
    ClarkeModel,
    empirical_cdf_max_gain,
    fit_clarke_model,
    max_gain,
    sample_exact,
    simulate_batch,
    smc_cdf,
)

model = ClarkeModel(W=1.0, N=40)
fitted = fit_clarke_model(model, 6)

exact_gains = max_gain(sample_exact(model.spectrum, seed=3, count=8000))
# the default start law, the one smc_cdf below starts its swarm from
direct_gains = max_gain(simulate_batch(fitted, 40, 8000, seed=4))
grid = np.quantile(exact_gains, [0.01, 0.05, 0.2, 0.5, 0.8, 0.95])

exact_curve = empirical_cdf_max_gain(exact_gains, grid)
direct_curve = empirical_cdf_max_gain(direct_gains, grid)
particle = smc_cdf(fitted, N=40, thresholds=grid, J=4000, seed=5)

print("threshold   exact MC   direct AR   particle")
for t, fe, fd, fp in zip(grid, exact_curve.values, direct_curve.values, particle.values):
    print(f"{t:9.3f}   {fe:8.4f}   {fd:9.4f}   {fp:8.4f}")

print(f"\nsup |particle - direct| = "
      f"{np.max(np.abs(particle.values - direct_curve.values)):.4f}")
deep = float(grid[0]) / 4
deep_curve = smc_cdf(fitted, N=40, thresholds=[deep], J=20_000, seed=6)
print(f"deep tail F({deep:.3f}) = {deep_curve.values[0]:.3e} "
      "(a direct-simulation estimate would need millions of draws)")
