"""Command-line entry point: reproducible experiments emitting CSV/JSON.

Subcommands cover the full pipeline: ``fit`` / ``select-order`` for the
correlation surrogate, ``generate`` for realizations, ``cdf`` for the
selection-gain curves, ``interpolate`` / ``bench`` / ``bound`` for the
reconstruction experiments.  Every command is deterministic given its
parameters and seed; ``--no-meta`` suppresses the one timestamp header line
so reruns are byte-identical.  Flags override ``--config`` JSON values,
which override built-in defaults.  Exit codes: 0 success, 1 numerical or
runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import arfit, correlation, generator, interpolation, selection_gain
from .errors import FitError, NumericalError, UnstableModelError
from .rng import complex_standard_normal, derive, make_rng
from .stats import max_gain

_STRATEGIES = ("random", "uniform_endpoints", "uniform_interior")

# built-in values, filled in after --config for parameters still unset;
# argparse leaves every parameter None so the config can tell "absent" apart
_COMMON_DEFAULTS = {"seed": 0, "out": "-", "no_meta": False, "sigma2": 1.0}
_SELECTION_DEFAULTS = {"mc": 30_000, "burn": 5}
_COMMAND_DEFAULTS = {
    "fit": _SELECTION_DEFAULTS,
    "select-order": _SELECTION_DEFAULTS,
    "generate": {"burn": 5},
    "cdf": {**_SELECTION_DEFAULTS, "J": 10_000, "ess_ratio": 0.5, "t_quantile_grid": 40},
    "interpolate": {**_SELECTION_DEFAULTS, "sigma_v2": 0.0},
    "bench": {"trials": 100, "sigma_v2": 0.0, "strategies": ",".join(_STRATEGIES)},
    "bound": {**_SELECTION_DEFAULTS, "trials": 500, "strategy": "uniform_endpoints"},
}


def max_workers() -> int:
    """Worker cap for internal fan-out: min(cpu count, FAS_THREADS if set)."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("FAS_THREADS")
    if env:
        try:
            cpus = min(cpus, max(1, int(env)))
        except ValueError:
            raise ValueError(f"FAS_THREADS must be an integer, got {env!r}")
    return max(1, cpus)


# ---------------------------------------------------------------------------
# output helpers

def _meta_line(args) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"generated_at={stamp} command={args.command}"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(args, header, rows):
    lines = []
    if not args.no_meta:
        lines.append("# " + _meta_line(args))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")


def _write_json(args, payload: dict):
    if not args.no_meta:
        payload = {"meta": _meta_line(args), **payload}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# shared parameter plumbing

def _merge_config(args):
    """Fill argparse Namespace gaps from the --config JSON file, then from built-ins."""
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("--config must hold a JSON object")
        for key, value in values.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise ValueError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    for attr, value in {**_COMMON_DEFAULTS, **_COMMAND_DEFAULTS[args.command]}.items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required parameter --{name.replace('_', '-')}")


def _clarke(args) -> correlation.ClarkeModel:
    return correlation.ClarkeModel(W=float(args.W), N=int(args.N), sigma2=float(args.sigma2))


def _select_order(args, model) -> arfit.OrderSelectionResult:
    return arfit.select_order(
        model,
        p_max=int(args.p_max),
        mc_samples=int(args.mc),
        burn_in_factor=int(args.burn),
        seed=int(args.seed),
        workers=max_workers(),
    )


def _fit_model(args, model) -> "tuple[arfit.ArpModel, arfit.OrderSelectionResult | None]":
    """The surrogate at --p, or at the order selected up to --p-max (with its selection)."""
    if args.p is not None:
        return arfit.fit_clarke_model(model, int(args.p)), None
    if args.p_max is None:
        raise ValueError("either --p or --p-max is required")
    selection = _select_order(args, model)
    return arfit.fit_clarke_model(model, selection.p_star), selection


def _int_list(text) -> list[int]:
    return [int(part) for part in str(text).split(",") if part != ""]


def _float_list(text) -> list[float]:
    return [float(part) for part in str(text).split(",") if part != ""]


def _threshold_grid(args, spectrum, seed) -> np.ndarray:
    """The --t-grid, or quantiles of a pilot exact sample drawn from ``spectrum``."""
    if args.t_grid:
        start, stop, count = str(args.t_grid).split(":")
        if int(count) < 1:
            raise ValueError("--t-grid count must be >= 1")
        return np.linspace(float(start), float(stop), int(count))
    count = int(args.t_quantile_grid)
    if count < 1:
        raise ValueError("--t-quantile-grid must be >= 1")
    pilot_n = 4000
    gains = max_gain(correlation.sample_exact(spectrum, derive(seed, 90), pilot_n))
    probs = (np.arange(count) + 0.5) / count
    return np.quantile(gains, probs)


def _lag_prior(model: arfit.ArpModel) -> np.ndarray:
    return interpolation.stationary_covariance(model)


# ---------------------------------------------------------------------------
# commands

def cmd_fit(args) -> int:
    _require(args, ["W", "N"])
    fitted, selection = _fit_model(args, _clarke(args))
    report = {
        "p": fitted.p,
        "alpha": [[float(a.real), float(a.imag)] for a in fitted.alpha],
        "sigma_eps2": float(fitted.sigma_eps2),
        "root_moduli": [float(m) for m in arfit.check_stability(fitted).root_moduli],
    }
    if selection is not None:
        report["p_star"] = selection.p_star
        report["distances"] = {str(k): float(v) for k, v in sorted(selection.distances.items())}
        report["unstable_orders"] = list(selection.unstable_orders)
    _write_json(args, report)
    return 0


def cmd_select_order(args) -> int:
    _require(args, ["W", "N", "p_max"])
    selection = _select_order(args, _clarke(args))
    if args.format == "csv":
        rows = [(p, selection.distances[p]) for p in sorted(selection.distances)]
        _write_csv(args, ["p", "ks_distance"], rows)
    else:
        _write_json(
            args,
            {
                "p_star": selection.p_star,
                "distances": {str(k): float(v) for k, v in sorted(selection.distances.items())},
                "reference_sample_count": selection.reference_sample_count,
                "unstable_orders": list(selection.unstable_orders),
            },
        )
    return 0


def cmd_generate(args) -> int:
    _require(args, ["W", "N", "p", "count"])
    model = _clarke(args)
    fitted = arfit.fit_clarke_model(model, int(args.p))
    config = generator.SimulationConfig(
        N=model.N, B=int(args.burn) * model.N, seed=int(args.seed)
    )
    batch = generator.simulate_batch(fitted, config, int(args.count))
    rows = [
        (i, k + 1, batch[i, k].real, batch[i, k].imag)
        for i in range(batch.shape[0])
        for k in range(batch.shape[1])
    ]
    _write_csv(args, ["realization_id", "port_index", "re", "im"], rows)
    return 0


def cmd_cdf(args) -> int:
    _require(args, ["W", "N", "p"])
    model = _clarke(args)
    orders = _int_list(args.p)
    seed = int(args.seed)
    mc = int(args.mc)
    j_particles = int(args.J)
    burn = int(args.burn)
    spectrum = correlation.eigen_spectrum(correlation.build_covariance(model))
    grid = _threshold_grid(args, spectrum, seed)
    exact = selection_gain.empirical_cdf_max_gain(
        correlation.sample_exact(spectrum, derive(seed, 0), mc), grid
    )
    rows = []
    for p in orders:
        fitted = arfit.fit_clarke_model(model, p)
        config = generator.SimulationConfig(N=model.N, B=burn * model.N, seed=derive(seed, 1, p))
        direct = selection_gain.empirical_cdf_max_gain(
            generator.simulate_batch(fitted, config, mc), grid
        )
        smc = selection_gain.smc_cdf(
            fitted,
            model.N,
            grid,
            J=j_particles,
            ess_ratio=float(args.ess_ratio),
            seed=derive(seed, 2, p),
            burn_in_factor=burn,
            workers=max_workers(),
        )
        for i, t in enumerate(grid):
            row = (t, exact.values[i], direct.values[i], smc.values[i], j_particles, seed)
            rows.append(row if len(orders) == 1 else (p, *row))
    header = ["threshold", "f_exact_mc", "f_ar_direct_mc", "f_smc", "J", "seed"]
    if len(orders) > 1:
        header = ["p", *header]
    _write_csv(args, header, rows)
    return 0


def _observed_values(truth, indices, sigma_v2, seed) -> np.ndarray:
    """One draw's values at the observed ports, with its own measurement noise."""
    values = truth[indices - 1]
    if sigma_v2 > 0:
        values = values + np.sqrt(sigma_v2) * complex_standard_normal(make_rng(seed), indices.size)
    return values


def _reconstruction_pair(cov, space, prior, n, indices, values, sigma_v2):
    """Oracle (exact prior) and Kalman (fitted prior) reconstructions of the
    value rows observed at ``indices``, plus the smoother's wall time."""
    obs = interpolation.ObservationSet(indices=indices, values=values, noise_var=sigma_v2)
    oracle = interpolation.dense_mmse(cov, obs)
    t0 = time.perf_counter()
    kalman = interpolation.kalman_smooth(space, prior, obs, n)
    return oracle, kalman, time.perf_counter() - t0


def cmd_interpolate(args) -> int:
    _require(args, ["W", "N", "M", "strategy"])
    model = _clarke(args)
    if not 1 <= int(args.M) <= model.N:
        raise ValueError(f"M must be in [1, N], got {args.M}")
    if args.strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}")
    fitted, _ = _fit_model(args, model)
    seed = int(args.seed)
    cov = correlation.build_covariance(model)
    spectrum = correlation.eigen_spectrum(cov)
    truth = correlation.sample_exact(spectrum, derive(seed, 0), 1)[0]
    indices = interpolation.port_select(args.strategy, model.N, int(args.M), derive(seed, 1))
    sigma_v2 = float(args.sigma_v2)
    oracle, kalman, _ = _reconstruction_pair(
        cov,
        interpolation.build_state_space(fitted),
        _lag_prior(fitted),
        model.N,
        indices,
        _observed_values(truth, indices, sigma_v2, derive(seed, 2)),
        sigma_v2,
    )
    observed = np.zeros(model.N, dtype=int)
    observed[indices - 1] = 1
    rows = [
        (
            k + 1,
            observed[k],
            truth[k].real,
            truth[k].imag,
            kalman.means[k].real,
            kalman.means[k].imag,
            kalman.variances[k],
            oracle.means[k].real,
            oracle.means[k].imag,
            oracle.variances[k],
        )
        for k in range(model.N)
    ]
    _write_csv(
        args,
        [
            "port_index",
            "observed",
            "truth_re",
            "truth_im",
            "kalman_re",
            "kalman_im",
            "kalman_var",
            "oracle_re",
            "oracle_im",
            "oracle_var",
        ],
        rows,
    )
    return 0


def cmd_bench(args) -> int:
    _require(args, ["W", "N", "p"])
    if args.ratio is None and args.M is None:
        raise ValueError("either --ratio or --M is required")
    sizes = _int_list(args.N)
    strategies = [s.strip() for s in str(args.strategies).split(",")]
    for s in strategies:
        if s not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}, got {s!r}")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"--strategies names a strategy twice: {args.strategies!r}")
    trials = int(args.trials)
    sigma_v2 = float(args.sigma_v2)
    seed = int(args.seed)
    rows = []
    for n in sizes:
        model = correlation.ClarkeModel(W=float(args.W), N=n, sigma2=float(args.sigma2))
        m_obs = int(args.M) if args.M is not None else max(2, round(float(args.ratio) * n))
        if m_obs > n:
            raise ValueError(f"M={m_obs} exceeds N={n}")
        fitted = arfit.fit_clarke_model(model, int(args.p))
        cov = correlation.build_covariance(model)
        spectrum = correlation.eigen_spectrum(cov)
        space = interpolation.build_state_space(fitted)
        prior = _lag_prior(fitted)
        truths = correlation.sample_exact(spectrum, derive(seed, n), trials)
        for s_idx, strategy in enumerate(strategies):
            patterns = [
                interpolation.port_select(strategy, n, m_obs, derive(seed, n, s_idx, trial))
                for trial in range(trials)
            ]
            # trials that observe the same ports share one reconstruction call
            groups: dict[bytes, list[int]] = {}
            for trial, indices in enumerate(patterns):
                groups.setdefault(indices.tobytes(), []).append(trial)
            nm_k = np.zeros(trials)
            nm_o = np.zeros(trials)
            t_kalman = np.zeros(trials)
            for members in groups.values():
                indices = patterns[members[0]]
                values = np.array([
                    _observed_values(truths[t], indices, sigma_v2, derive(seed, n, s_idx, t, 1))
                    for t in members
                ])
                oracle, kalman, elapsed = _reconstruction_pair(
                    cov, space, prior, n, indices, values, sigma_v2
                )
                t_kalman[members] = elapsed / len(members)
                unobserved = np.setdiff1d(np.arange(1, n + 1), indices)
                if unobserved.size:
                    nm_k[members] = interpolation.nmse(truths[members], kalman.means, unobserved)
                    nm_o[members] = interpolation.nmse(truths[members], oracle.means, unobserved)
            for trial, indices in enumerate(patterns):
                # measured times are environmental, like the timestamp header;
                # --no-meta zeroes them so reruns are byte-identical
                wall_us = 0 if args.no_meta else int(round(t_kalman[trial] * 1e6))
                rows.append(
                    (
                        trial,
                        strategy,
                        n,
                        m_obs,
                        sigma_v2,
                        nm_k[trial],
                        nm_o[trial],
                        interpolation.max_gap(indices, n),
                        wall_us,
                    )
                )
    _write_csv(
        args,
        ["trial_id", "strategy", "N", "M", "sigma_v2", "nmse_kalman", "nmse_oracle", "l_max", "wall_time_us"],
        rows,
    )
    return 0


def cmd_bound(args) -> int:
    _require(args, ["W", "N", "eps"])
    model = _clarke(args)
    epsilons = _float_list(args.eps)
    trials = int(args.trials)
    strategy = args.strategy
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}")
    seed = int(args.seed)
    cov = correlation.build_covariance(model)
    spectrum = correlation.eigen_spectrum(cov)
    fitted = None
    if args.p is not None or args.p_max is not None:
        fitted, _ = _fit_model(args, model)
        space = interpolation.build_state_space(fitted)
        prior = _lag_prior(fitted)
    min_m = 2 if strategy == "uniform_endpoints" else 1

    def truth_sampler(sample_seed, count):
        return correlation.sample_exact(spectrum, sample_seed, count)

    def select(m, trial_seed):
        return interpolation.port_select(strategy, model.N, m, trial_seed)

    rows = []
    for idx, eps in enumerate(epsilons):
        bound = interpolation.min_observations_bound(spectrum, eps)
        m_oracle = interpolation.empirical_min_observations(
            eps,
            trials,
            derive(seed, idx, 0),
            lambda obs: interpolation.dense_mmse(cov, obs),
            truth_sampler,
            select,
            model.N,
            min_m=min_m,
        )
        if fitted is not None:
            m_kalman = interpolation.empirical_min_observations(
                eps,
                trials,
                derive(seed, idx, 1),
                lambda obs: interpolation.kalman_smooth(space, prior, obs, model.N),
                truth_sampler,
                select,
                model.N,
                min_m=min_m,
            )
        else:
            m_kalman = -1
        rows.append((eps, bound, m_oracle, m_kalman))
    _write_csv(
        args,
        ["epsilon", "m_min_bound", "m_min_empirical_oracle", "m_min_empirical_kalman"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON file with default parameter values")
    sub.add_argument("--seed", type=int, help="stream seed (default 0)")
    sub.add_argument("--out", help="output path, '-' for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--no-meta", action="store_true", default=None, help="omit the timestamp header")
    sub.add_argument("--sigma2", type=float, help="per-port variance (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faschan",
        description="Spatial correlation surrogate modeling and sparse-port channel reconstruction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit the autoregressive surrogate")
    fit.add_argument("--W", type=float)
    fit.add_argument("--N", type=int)
    fit.add_argument("--p", type=int)
    fit.add_argument("--p-max", dest="p_max", type=int)
    fit.add_argument("--mc", type=int, help="Monte-Carlo samples per CDF during selection")
    fit.add_argument("--burn", type=int, help="burn-in length as a multiple of N")
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    sel = commands.add_parser("select-order", help="pick the order by CDF distance")
    sel.add_argument("--W", type=float)
    sel.add_argument("--N", type=int)
    sel.add_argument("--p-max", dest="p_max", type=int)
    sel.add_argument("--mc", type=int)
    sel.add_argument("--burn", type=int)
    _add_common(sel)
    sel.set_defaults(func=cmd_select_order)

    gen = commands.add_parser("generate", help="emit simulated channel realizations")
    gen.add_argument("--W", type=float)
    gen.add_argument("--N", type=int)
    gen.add_argument("--p", type=int)
    gen.add_argument("--count", type=int)
    gen.add_argument("--burn", type=int)
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    cdf = commands.add_parser("cdf", help="selection-gain CDF curves (exact, direct, particle)")
    cdf.add_argument("--W", type=float)
    cdf.add_argument("--N", type=int)
    cdf.add_argument("--p", help="order or comma list of orders")
    cdf.add_argument("--mc", type=int)
    cdf.add_argument("--burn", type=int)
    cdf.add_argument("--J", type=int, help="particle count")
    cdf.add_argument("--ess-ratio", dest="ess_ratio", type=float)
    cdf.add_argument("--t-grid", dest="t_grid", help="linear grid start:stop:count")
    cdf.add_argument("--t-quantile-grid", dest="t_quantile_grid", type=int,
                     help="grid size drawn from pilot exact-sample quantiles")
    _add_common(cdf)
    cdf.set_defaults(func=cmd_cdf)

    itp = commands.add_parser("interpolate", help="reconstruct one realization from sparse ports")
    itp.add_argument("--W", type=float)
    itp.add_argument("--N", type=int)
    itp.add_argument("--M", type=int)
    itp.add_argument("--strategy", choices=_STRATEGIES)
    itp.add_argument("--p", type=int)
    itp.add_argument("--p-max", dest="p_max", type=int)
    itp.add_argument("--mc", type=int)
    itp.add_argument("--burn", type=int)
    itp.add_argument("--sigma-v2", dest="sigma_v2", type=float)
    _add_common(itp)
    itp.set_defaults(func=cmd_interpolate)

    bench = commands.add_parser("bench", help="NMSE and timing over strategies and sizes")
    bench.add_argument("--W", type=float)
    bench.add_argument("--N", help="comma list of port counts")
    bench.add_argument("--ratio", type=float, help="observation fraction M/N")
    bench.add_argument("--M", type=int, help="fixed observation count (overrides --ratio)")
    bench.add_argument("--strategies", help="comma list; default all three")
    bench.add_argument("--trials", type=int)
    bench.add_argument("--p", type=int)
    bench.add_argument("--sigma-v2", dest="sigma_v2", type=float)
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    bound = commands.add_parser("bound", help="observation-count bound vs empirical requirement")
    bound.add_argument("--W", type=float)
    bound.add_argument("--N", type=int)
    bound.add_argument("--eps", help="comma list of NMSE targets")
    bound.add_argument("--trials", type=int)
    bound.add_argument("--strategy", choices=_STRATEGIES)
    bound.add_argument("--p", type=int)
    bound.add_argument("--p-max", dest="p_max", type=int)
    bound.add_argument("--mc", type=int)
    bound.add_argument("--burn", type=int)
    _add_common(bound)
    bound.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (FitError, UnstableModelError, NumericalError, np.linalg.LinAlgError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
