"""Fit the autoregressive surrogate and pick its order.

Fits increasing orders to a small aperture, simulates each with burn-in,
and compares the selection-gain CDFs against exact sampling by the
two-sample KS distance, then lets the selector make the call.  Small Monte
Carlo sizes keep this quick; the acceptance suite runs the full-scale
version.
"""

import numpy as np

from faschan import (
    ClarkeModel,
    check_stability,
    fit_clarke_model,
    ks_distance,
    max_gain,
    sample_exact,
    select_order,
    simulate_batch,
)

model = ClarkeModel(W=1.0, N=40)
reference = max_gain(sample_exact(model.spectrum, seed=7, count=4000))

# the surrogate's slowest mode mixes at a rate set by the aperture, not by
# N, so this short array wants a generous burn-in multiple
burn = 50
print("order   innovation var   max root   KS distance")
for p in (1, 2, 4, 6, 8):
    fitted = fit_clarke_model(model, p)
    report = check_stability(fitted)
    sims = simulate_batch(fitted, 40, 4000, seed=(8, p), burn_in_factor=burn)
    d = ks_distance(reference, max_gain(sims))
    print(f"p={p:<4d}  {fitted.sigma_eps2:12.3e}   {report.root_moduli[0]:.6f}   {d:.4f}")

result = select_order(model, p_max=8, mc_samples=4000, burn_in_factor=burn, seed=9)
print(f"\nselected order p* = {result.p_star} "
      f"(distance {result.distances[result.p_star]:.4f})")
