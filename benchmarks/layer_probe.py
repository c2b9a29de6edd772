"""Time the three single-layer calls quoted in ROADMAP's Baseline, in isolation.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/layer_probe.py

Prints one JSON object: the median of REPEATS timed calls, after one untimed
warm call, for ``fit_clarke_model`` at W=5, N=200, p=37; ``kalman_smooth``
at W=2, N=100, p=20 with M=20 uniform_endpoints observations; and, with 20x
as many calls, ``dense_mmse`` on the same observation set.  The CLI workloads mix sizes, so these fixed
points are what the recorded baseline compares with ROADMAP's figures.
"""

from __future__ import annotations

import json
import statistics
import time

from faschan.arfit import fit_clarke_model
from faschan.cli import _lag_prior
from faschan.correlation import ClarkeModel, build_covariance, eigen_spectrum, sample_exact
from faschan.interpolation import ObservationSet, build_state_space, dense_mmse, kalman_smooth, port_select

REPEATS = 7


def _median_s(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    flagship = ClarkeModel(W=5.0, N=200)
    small = ClarkeModel(W=2.0, N=100)
    fitted = fit_clarke_model(small, 20)
    space = build_state_space(fitted)
    prior = _lag_prior(fitted)  # the Kalman prior the CLI uses
    cov = build_covariance(small)
    truth = sample_exact(eigen_spectrum(cov), 0, 1)[0]
    idx = port_select("uniform_endpoints", small.N, 20)
    obs = ObservationSet(indices=idx, values=truth[idx - 1], noise_var=0.0)
    cov.matrix()  # materialize outside the timed region

    result = {
        "fit_clarke_model_W5_N200_p37_s": _median_s(lambda: fit_clarke_model(flagship, 37), REPEATS),
        "kalman_smooth_N100_p20_M20_s": _median_s(lambda: kalman_smooth(space, prior, obs, small.N), REPEATS),
        "dense_mmse_N100_M20_s": _median_s(lambda: dense_mmse(cov, obs), REPEATS * 20),
        "repeats": REPEATS,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
