"""The four benchmark workloads: CLI argv from a seed, work items, output checks.

Each workload is one ``faschan`` subcommand in the shape of an acceptance
configuration, scaled so that a job takes a few seconds on a 2-core box:

- ``order_select``: C1's order selection (W=5, N=200) at the smallest Monte
  Carlo size ``select_order`` accepts; fits plus burn-in simulation, single
  threaded.  Bypasses ``selection_gain`` and ``interpolation``.
- ``particle_cdf``: C3's particle CDF at p=37; large generator batches and
  the particle evaluator on two threads.  Bypasses ``interpolation``.
- ``recon_sweep``: C6's strategy sweep; the Kalman smoother dominates, and
  two of three strategies repeat one port pattern in every trial.
- ``obs_bound``: C5's bound check; thousands of small dense solves.
  Bypasses ``arfit``, ``generator`` and ``selection_gain``.

Every tolerance below is derived from the job's sample sizes, never tuned
to pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

# two-sample KS critical value at level ALPHA: c(ALPHA) * sqrt((n + m) / (n m));
# the check runs on each of the ~100 order_select jobs of a benchmark
# evaluation, so ALPHA keeps the chance of any false alarm near 10%
KS_ALPHA = 0.001
# particle/direct sup-gap: Z standard errors of a difference of two CDF
# estimates, with F(1-F) <= 1/4, the direct estimate binomial on mc draws and
# the particle estimate on at least J * ESS_RATIO effective particles
# (resampling keeps the ESS above half the swarm)
GAP_Z = 5.0
ESS_RATIO = 0.5
# C5: the empirical observation count exceeds the eigenvalue-tail bound by at most this
BOUND_SLACK = 4

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    output: str  # file suffix of the CLI output
    argv: Callable[[int], list[str]]
    # (output text) -> (work items, checks)
    check: Callable[[str], "tuple[int, list[Check]]"]


# -- order_select ---------------------------------------------------------

SELECT = {"W": 5, "N": 200, "p_max": 20, "mc": 1000}


def _select_argv(seed: int) -> list[str]:
    s = SELECT
    return ["select-order", "--W", str(s["W"]), "--N", str(s["N"]), "--p-max", str(s["p_max"]),
            "--mc", str(s["mc"]), "--seed", str(seed)]


def ks_critical(n: int, m: int, alpha: float = KS_ALPHA) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def _select_check(text: str) -> "tuple[int, list[Check]]":
    from faschan.arfit import TIE_TOL

    data = json.loads(text)
    distances = {int(p): float(d) for p, d in data["distances"].items()}
    evaluated = sorted([*distances, *data["unstable_orders"]])
    best = min(distances.values())
    tied = min(p for p, d in distances.items() if d <= best + TIE_TOL)
    p_star = int(data["p_star"])
    critical = ks_critical(SELECT["mc"], SELECT["mc"])
    checks = [
        ("orders_evaluated", evaluated == list(range(1, SELECT["p_max"] + 1))
         and data["reference_sample_count"] == SELECT["mc"], f"{len(evaluated)} orders"),
        ("distances_in_unit_interval", all(0.0 <= d <= 1.0 for d in distances.values()),
         f"range [{min(distances.values()):.4f}, {max(distances.values()):.4f}]"),
        ("p_star_smallest_within_tie_tol", p_star == tied, f"p_star={p_star}, expected {tied}"),
        ("d_p_star_below_ks_critical", distances.get(p_star, 1.0) < critical,
         f"D({p_star})={distances.get(p_star, float('nan')):.4f} < {critical:.4f}"),
    ]
    return SELECT["p_max"], checks


# -- particle_cdf ---------------------------------------------------------

CDF = {"W": 5, "N": 200, "p": 37, "mc": 2000, "J": 2000, "grid": 4}


def _cdf_argv(seed: int) -> list[str]:
    c = CDF
    return ["cdf", "--W", str(c["W"]), "--N", str(c["N"]), "--p", str(c["p"]), "--mc", str(c["mc"]),
            "--J", str(c["J"]), "--t-quantile-grid", str(c["grid"]), "--seed", str(seed)]


def sup_gap_tolerance(mc: int, J: int) -> float:
    return GAP_Z * 0.5 * math.sqrt(1.0 / mc + 1.0 / (ESS_RATIO * J))


def _non_decreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _cdf_check(text: str) -> "tuple[int, list[Check]]":
    rows = list(csv.DictReader(io.StringIO(text)))
    curves = {col: [float(r[col]) for r in rows] for col in ("f_exact_mc", "f_ar_direct_mc", "f_smc")}
    thresholds = [float(r["threshold"]) for r in rows]
    gap = max((abs(a - b) for a, b in zip(curves["f_smc"], curves["f_ar_direct_mc"])), default=1.0)
    tol = sup_gap_tolerance(CDF["mc"], CDF["J"])
    checks = [
        ("row_count", len(rows) == CDF["grid"] and all(int(r["J"]) == CDF["J"] for r in rows),
         f"{len(rows)} thresholds"),
        ("curves_in_unit_interval", all(0.0 <= v <= 1.0 for c in curves.values() for v in c), ""),
        ("curves_non_decreasing",
         _non_decreasing(thresholds) and all(_non_decreasing(c) for c in curves.values()), ""),
        ("smc_within_sup_gap_of_direct", gap <= tol, f"sup-gap {gap:.4f} <= {tol:.4f}"),
    ]
    return len(rows), checks


# -- recon_sweep ----------------------------------------------------------

SWEEP = {"W": 2, "N": (50, 100, 200), "ratio": 0.2, "p": 20, "trials": 8}
STRATEGIES = 3


def _sweep_argv(seed: int) -> list[str]:
    s = SWEEP
    return ["bench", "--W", str(s["W"]), "--N", ",".join(map(str, s["N"])), "--ratio", str(s["ratio"]),
            "--p", str(s["p"]), "--trials", str(s["trials"]), "--seed", str(seed)]


def _sweep_check(text: str) -> "tuple[int, list[Check]]":
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = len(SWEEP["N"]) * STRATEGIES * SWEEP["trials"]
    values = [float(r[col]) for r in rows for col in ("nmse_kalman", "nmse_oracle")]
    checks = [
        ("row_count", len(rows) == expected, f"{len(rows)} rows, expected {expected}"),
        ("nmse_finite_non_negative", bool(values) and all(math.isfinite(v) and v >= 0.0 for v in values),
         f"max {max(values, default=float('nan')):.3e}"),
    ]
    return len(rows), checks


# -- obs_bound ------------------------------------------------------------

BOUND = {"W": 2, "N": 100, "eps": (0.1, 0.01, 0.001), "trials": 250, "min_m": 2}


def _bound_argv(seed: int) -> list[str]:
    b = BOUND
    return ["bound", "--W", str(b["W"]), "--N", str(b["N"]), "--eps", ",".join(map(str, b["eps"])),
            "--trials", str(b["trials"]), "--seed", str(seed)]


def bisection_probes(answer: int, lo: int, hi: int) -> int:
    """Monte Carlo rounds ``empirical_min_observations`` ran to return ``answer``.

    Its bisection keeps ``hi`` qualifying and ``lo`` not, so every probed M
    qualified exactly when M >= answer; replaying that gives the probe count.
    """
    if answer == lo:
        return 1
    probes = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if mid >= answer:
            hi = mid
        else:
            lo = mid
    return probes


def _bound_check(text: str) -> "tuple[int, list[Check]]":
    rows = list(csv.DictReader(io.StringIO(text)))
    pairs = [(int(r["m_min_bound"]), int(r["m_min_empirical_oracle"])) for r in rows]
    eps = [float(r["epsilon"]) for r in rows]
    checks = [
        ("row_count", eps == list(BOUND["eps"]) and all(int(r["m_min_empirical_kalman"]) == -1 for r in rows),
         f"{len(rows)} rows"),
        ("bound_le_empirical_le_bound_plus_slack",
         bool(pairs) and all(b <= e <= b + BOUND_SLACK for b, e in pairs),
         ", ".join(f"{b}/{e}" for b, e in pairs)),
    ]
    rounds = sum(bisection_probes(e, BOUND["min_m"], BOUND["N"]) for _, e in pairs
                 if BOUND["min_m"] <= e <= BOUND["N"])
    return rounds * BOUND["trials"], checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("order_select", 1, "json", _select_argv, _select_check),
        Workload("particle_cdf", 2, "csv", _cdf_argv, _cdf_check),
        Workload("recon_sweep", 1, "csv", _sweep_argv, _sweep_check),
        Workload("obs_bound", 1, "csv", _bound_argv, _bound_check),
    )
}
