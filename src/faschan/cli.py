"""Command-line entry point: reproducible experiments emitting CSV/JSON.

Subcommands cover the full pipeline: ``fit`` / ``select-order`` for the
correlation surrogate, ``generate`` for realizations, ``cdf`` for the
selection-gain curves, ``interpolate`` / ``bench`` / ``bound`` for the
reconstruction experiments.  Every command is deterministic given its
parameters and seed; ``--no-meta`` suppresses the one timestamp header line
so reruns are byte-identical.

Every parameter is declared once, in ``_PARAMS``: its converter, built-in
default, help text and the subcommands that take it.  A value comes from its
flag, else from the ``--config`` JSON file, else from the default, and each
passes through the same converter: a config value is read as the text JSON
writes for it, so it is converted and validated exactly as that text given
as a flag would be.  ``--format`` (json or csv) belongs to ``select-order``
alone.  Exit codes: 0 success, 1 numerical or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import arfit, correlation, generator, interpolation, selection_gain
from .errors import FitError, NumericalError, UnstableModelError
from .rng import complex_standard_normal, derive, make_rng

_STRATEGIES = ("random", *interpolation.UNIFORM_STRATEGIES)


class _Inline(Executor):
    """The one-worker executor: runs each task as it is submitted, on the calling thread."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


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
# parameters: one declaration each, one conversion path

def _comma_list(item: Callable[[str], object]) -> Callable[[str], list]:
    return lambda text: [item(part) for part in text.split(",") if part != ""]


def _choice(*choices: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {choices}")
        return text

    return convert


def _switch(text: str) -> bool:
    return _choice("true", "false")(text) == "true"


_strategy = _choice(*_STRATEGIES)


def _checked(convert: Callable[[str], object], rule: str, holds: Callable[[object], bool]):
    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(f"{rule}, got {value}")
        return value

    return check


_count = _checked(int, "must be >= 1", lambda value: value >= 1)
_fraction = _checked(float, "each entry must be in [0, 1]", lambda value: 0.0 <= value <= 1.0)
_ratio = _checked(float, "must be in (0, 1]", lambda value: 0.0 < value <= 1.0)


def _distinct(convert: Callable[[str], list]) -> Callable[[str], list]:
    """``convert``, refusing a list that names an entry twice: each entry gets
    its own rows, and an entry of ``bench --N`` or ``cdf --p`` also keys
    their seeds, so a repeat there would print the same rows again."""

    def check(text: str) -> list:
        values = convert(text)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"names {value} twice")
        return values

    return check


_strategy_list = _distinct(lambda text: [_strategy(part.strip()) for part in text.split(",")])


def _linear_grid(text: str) -> np.ndarray:
    """start:stop:count thresholds, checked as the CDFs will check them, before any sampling."""
    start, stop, count = text.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= start <= stop:
        raise ValueError("thresholds must satisfy 0 <= start <= stop")
    return np.linspace(start, stop, count)


@dataclass(frozen=True)
class _Param:
    """A parameter: attribute and config key ``name``, its converter from
    text, its default as text (None: none), its help and its subcommands."""

    name: str
    convert: Callable[[str], object]
    default: "str | None"
    help: str
    commands: tuple[str, ...]

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_ALL = ("fit", "select-order", "generate", "cdf", "interpolate", "bench", "bound")
_SELECTING = ("fit", "select-order", "interpolate", "bound")

# a name may appear twice, with disjoint subcommands
_PARAMS = (
    _Param("W", float, None, "aperture length in wavelengths", _ALL),
    _Param("N", int, None, "port count", tuple(c for c in _ALL if c != "bench")),
    _Param("N", _distinct(_comma_list(int)), None, "comma list of port counts", ("bench",)),
    _Param("p", int, None, "surrogate order", ("fit", "generate", "interpolate", "bench", "bound")),
    _Param("p", _distinct(_comma_list(int)), None, "order or comma list of orders", ("cdf",)),
    _Param("p_max", int, None, "select the order up to this one", _SELECTING),
    _Param("mc", int, "30000", "Monte-Carlo samples per CDF", (*_SELECTING, "cdf")),
    _Param("burn", int, "5", "burn-in length as a multiple of N", (*_SELECTING, "generate", "cdf")),
    _Param("count", int, None, "realizations to emit", ("generate",)),
    _Param("J", int, "10000", "particle count", ("cdf",)),
    _Param("ess_ratio", float, "0.5", "resample below this ESS fraction", ("cdf",)),
    _Param("t_grid", _linear_grid, None, "linear grid start:stop:count", ("cdf",)),
    _Param("t_quantile_grid", _count, "40",
           "grid size drawn from pilot exact-sample quantiles, without --t-grid", ("cdf",)),
    _Param("M", _count, None, "observed port count", ("interpolate", "bench")),
    _Param("ratio", _ratio, None, "observation fraction M/N, without --M", ("bench",)),
    _Param("strategy", _strategy, None, "port selection strategy", ("interpolate",)),
    _Param("strategy", _strategy, "uniform_endpoints", "port selection strategy", ("bound",)),
    _Param("strategies", _strategy_list, ",".join(_STRATEGIES), "comma list of strategies", ("bench",)),
    _Param("trials", _count, "100", "trials per strategy and size", ("bench",)),
    _Param("trials", _count, "500", "trials per observation count", ("bound",)),
    _Param("eps", _comma_list(_fraction), None, "comma list of NMSE targets", ("bound",)),
    _Param("sigma_v2", float, "0.0", "measurement noise variance", ("interpolate", "bench")),
    _Param("sigma2", float, "1.0", "per-port variance", _ALL),
    _Param("seed", int, "0", "stream seed", _ALL),
    _Param("out", str, "-", "output path, '-' for stdout", _ALL),
    _Param("format", _choice("json", "csv"), "json", "output format", ("select-order",)),
    _Param("no_meta", _switch, "false", "omit the timestamp header", _ALL),
)


def _params(command: str) -> dict[str, _Param]:
    return {param.name: param for param in _PARAMS if command in param.commands}


def _resolve(args):
    """Set each parameter from its flag, else the --config file, else its
    default, through its converter; one with none of the three stays None."""
    params = _params(args.command)
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("--config must hold a JSON object")
        for key, value in values.items():
            name = key.replace("-", "_")
            if name not in params:
                raise ValueError(f"unknown config key {key!r}")
            config[name] = value if isinstance(value, str) else json.dumps(value)
    for name, param in params.items():
        text = getattr(args, name)
        if text is None:
            text = config.get(name, param.default)
        value = None
        if text is not None:
            try:
                value = param.convert(text)
            except ValueError as exc:
                raise ValueError(f"invalid {param.flag} value {text!r}: {exc}") from None
        setattr(args, name, value)


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required parameter --{name.replace('_', '-')}")


def _least_observed(strategies) -> int:
    """The smallest M that every strategy accepts: uniform_endpoints pins both ends."""
    return 2 if "uniform_endpoints" in strategies else 1


def _check_observed(flag: str, m: int, n: int, strategies) -> None:
    """Refuse an observed count ``m`` at ``n`` ports that a strategy would, before any work."""
    least = _least_observed(strategies)
    if not least <= m <= n:
        raise ValueError(f"{flag} gives M={m} at N={n}, outside [{least}, {n}] for {', '.join(strategies)}")


# ---------------------------------------------------------------------------
# shared steps

def _clarke(args) -> correlation.ClarkeModel:
    return correlation.ClarkeModel(W=args.W, N=args.N, sigma2=args.sigma2)


def _select_order(args, model) -> arfit.OrderSelectionResult:
    return arfit.select_order(
        model,
        p_max=args.p_max,
        mc_samples=args.mc,
        burn_in_factor=args.burn,
        seed=args.seed,
        workers=max_workers(),
    )


def _fit_model(args, model) -> "tuple[arfit.ArpModel, arfit.OrderSelectionResult | None]":
    """The surrogate at --p, or at the order selected up to --p-max (with its selection)."""
    if args.p is not None:
        return arfit.fit_clarke_model(model, args.p), None
    if args.p_max is None:
        raise ValueError("either --p or --p-max is required")
    selection = _select_order(args, model)
    return arfit.fit_clarke_model(model, selection.p_star), selection


def _threshold_grid(args, spectrum) -> np.ndarray:
    """The --t-grid, or quantiles of a pilot exact sample drawn from ``spectrum``."""
    if args.t_grid is not None:
        return args.t_grid
    count = args.t_quantile_grid
    pilot_n = 4000
    gains = correlation.sample_exact_max_gains(spectrum, derive(args.seed, 90), pilot_n)
    probs = (np.arange(count) + 0.5) / count
    return np.quantile(gains, probs)


def _estimators(model: correlation.ClarkeModel, fitted: "arfit.ArpModel | None"):
    """The exact covariance and the two reconstructions of ``model``'s ports.

    Returns ``(cov, oracle, kalman)``: ``oracle(obs)`` conditions on the
    exact covariance, ``kalman(obs)`` smooths on the fitted surrogate from its
    stationary factor, and is None without a surrogate.  The factor is built
    here, so the first timed smoother call pays for smoothing alone.
    """
    cov = correlation.build_covariance(model)

    def oracle(obs):
        return interpolation.dense_mmse(cov, obs)

    if fitted is None:
        return cov, oracle, None
    fitted.stationary_factor  # cached on the model

    def kalman(obs):
        return interpolation.kalman_smooth(fitted, obs, model.N)

    return cov, oracle, kalman


def _observed_values(truth, indices, sigma_v2, seed) -> np.ndarray:
    """One draw's values at the observed ports, with its own measurement noise."""
    values = truth[indices - 1]
    if sigma_v2 > 0:
        values = values + np.sqrt(sigma_v2) * complex_standard_normal(make_rng(seed), indices.size)
    return values


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
    fitted = arfit.fit_clarke_model(model, args.p)
    config = generator.SimulationConfig(N=model.N, B=args.burn * model.N, seed=args.seed)
    batch = generator.simulate_batch(fitted, config, args.count)
    rows = [
        (i, k + 1, batch[i, k].real, batch[i, k].imag)
        for i in range(batch.shape[0])
        for k in range(batch.shape[1])
    ]
    _write_csv(args, ["realization_id", "port_index", "re", "im"], rows)
    return 0


def cmd_cdf(args) -> int:
    """One task graph on the worker pool: each stage starts once its inputs exist.

    The exact side (spectrum, then the exact column beside the threshold
    pilot), each order's direct side (fit, then the direct column) and each
    particle threshold (``smc_cdf`` on the same pool) are tasks.  Every task
    draws from its own derived seed, so the output does not depend on the
    worker count; with one worker the tasks run inline, in submission order.
    """
    _require(args, ["W", "N", "p"])
    model = _clarke(args)
    orders = args.p
    seed = args.seed
    mc = args.mc
    workers = max_workers()
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else _Inline() as pool:

        def exact_side():
            spectrum = correlation.eigen_spectrum(correlation.build_covariance(model))
            exact = pool.submit(correlation.sample_exact_max_gains, spectrum, derive(seed, 0), mc)
            return _threshold_grid(args, spectrum), exact

        def direct_side(p):
            fitted = arfit.fit_clarke_model(model, p)
            config = generator.SimulationConfig(N=model.N, B=args.burn * model.N, seed=derive(seed, 1, p))
            return fitted, pool.submit(generator.simulate_max_gains, [fitted], config, mc)

        try:
            exact_task = pool.submit(exact_side)
            direct_tasks = [pool.submit(direct_side, p) for p in orders]
            grid, exact = exact_task.result()
            columns = []
            for p, task in zip(orders, direct_tasks):
                fitted, direct = task.result()
                smc = selection_gain.smc_cdf(
                    fitted, model.N, grid, J=args.J, ess_ratio=args.ess_ratio,
                    seed=derive(seed, 2, p), burn_in_factor=args.burn, pool=pool,
                )
                columns.append((p, direct, smc))
            exact_curve = selection_gain.empirical_cdf_max_gain(exact.result(), grid)
            rows = []
            for p, direct, smc in columns:
                direct_curve = selection_gain.empirical_cdf_max_gain(direct.result()[0], grid)
                for i, t in enumerate(grid):
                    row = (t, exact_curve.values[i], direct_curve.values[i], smc.values[i], args.J, seed)
                    rows.append(row if len(orders) == 1 else (p, *row))
        except BaseException:
            # drop the queued stages rather than finish them for nothing
            pool.shutdown(cancel_futures=True)
            raise
    header = ["threshold", "f_exact_mc", "f_ar_direct_mc", "f_smc", "J", "seed"]
    if len(orders) > 1:
        header = ["p", *header]
    _write_csv(args, header, rows)
    return 0


def cmd_interpolate(args) -> int:
    _require(args, ["W", "N", "M", "strategy"])
    model = _clarke(args)
    _check_observed("--M", args.M, model.N, [args.strategy])
    fitted, _ = _fit_model(args, model)
    seed = args.seed
    cov, oracle, kalman = _estimators(model, fitted)
    spectrum = correlation.eigen_spectrum(cov)
    truth = correlation.sample_exact(spectrum, derive(seed, 0), 1)[0]
    indices = interpolation.port_select(args.strategy, model.N, args.M, derive(seed, 1))
    values = _observed_values(truth, indices, args.sigma_v2, derive(seed, 2))
    obs = interpolation.ObservationSet(indices=indices, values=values, noise_var=args.sigma_v2)
    by_oracle = oracle(obs)
    by_kalman = kalman(obs)
    observed = np.zeros(model.N, dtype=int)
    observed[indices - 1] = 1
    rows = [
        (k + 1, observed[k], truth[k].real, truth[k].imag,
         by_kalman.means[k].real, by_kalman.means[k].imag, by_kalman.variances[k],
         by_oracle.means[k].real, by_oracle.means[k].imag, by_oracle.variances[k])
        for k in range(model.N)
    ]
    header = ["port_index", "observed", "truth_re", "truth_im", "kalman_re", "kalman_im",
              "kalman_var", "oracle_re", "oracle_im", "oracle_var"]
    _write_csv(args, header, rows)
    return 0


def cmd_bench(args) -> int:
    _require(args, ["W", "N", "p"])
    if args.ratio is None and args.M is None:
        raise ValueError("either --ratio or --M is required")
    if args.ratio is not None and args.M is not None:
        raise ValueError("--M and --ratio are alternatives; give one")
    trials = args.trials
    sigma_v2 = args.sigma_v2
    seed = args.seed
    flag = "--M" if args.M is not None else "--ratio"
    observed = [args.M if args.M is not None else round(args.ratio * n) for n in args.N]
    for n, m_obs in zip(args.N, observed):
        _check_observed(flag, m_obs, n, args.strategies)
    rows = []
    for n, m_obs in zip(args.N, observed):
        model = correlation.ClarkeModel(W=args.W, N=n, sigma2=args.sigma2)
        cov, oracle, kalman = _estimators(model, arfit.fit_clarke_model(model, args.p))
        truths = correlation.sample_exact(correlation.eigen_spectrum(cov), derive(seed, n), trials)
        for s_idx, strategy in enumerate(args.strategies):
            nm_k, nm_o, t_kalman = np.zeros((3, trials))
            l_max = np.zeros(trials, dtype=int)
            # trials that observe the same ports share one reconstruction call
            patterns = interpolation.trial_patterns(strategy, n, m_obs, trials, derive(seed, n, s_idx))
            for indices, members in patterns:
                values = np.array([
                    _observed_values(truths[t], indices, sigma_v2, derive(seed, n, s_idx, t, 1))
                    for t in members
                ])
                obs = interpolation.ObservationSet(indices=indices, values=values, noise_var=sigma_v2)
                by_oracle = oracle(obs)
                t0 = time.perf_counter()
                by_kalman = kalman(obs)
                t_kalman[members] = (time.perf_counter() - t0) / len(members)
                l_max[members] = interpolation.max_gap(indices, n)
                unobserved = np.setdiff1d(np.arange(1, n + 1), indices)
                if unobserved.size:
                    nm_k[members] = interpolation.nmse(truths[members], by_kalman.means, unobserved)
                    nm_o[members] = interpolation.nmse(truths[members], by_oracle.means, unobserved)
            for trial in range(trials):
                # measured times are environmental, like the timestamp header;
                # --no-meta zeroes them so reruns are byte-identical
                wall_us = 0 if args.no_meta else int(round(t_kalman[trial] * 1e6))
                rows.append((trial, strategy, n, m_obs, sigma_v2, nm_k[trial], nm_o[trial],
                             l_max[trial], wall_us))
    _write_csv(
        args,
        ["trial_id", "strategy", "N", "M", "sigma_v2", "nmse_kalman", "nmse_oracle", "l_max", "wall_time_us"],
        rows,
    )
    return 0


def cmd_bound(args) -> int:
    _require(args, ["W", "N", "eps"])
    model = _clarke(args)
    seed = args.seed
    fitted = None
    if args.p is not None or args.p_max is not None:
        fitted, _ = _fit_model(args, model)
    cov, oracle, kalman = _estimators(model, fitted)
    spectrum = correlation.eigen_spectrum(cov)
    truth_sampler = functools.partial(correlation.sample_exact, spectrum)
    min_m = _least_observed([args.strategy])

    def empirical(eps, estimator, trial_seed, bound):
        return interpolation.empirical_min_observations(
            eps, args.trials, trial_seed, estimator, truth_sampler, args.strategy, model.N,
            min_m=min_m, start=bound,
        )

    rows = []
    for idx, eps in enumerate(args.eps):
        bound = interpolation.min_observations_bound(spectrum, eps)
        m_oracle = empirical(eps, oracle, derive(seed, idx, 0), bound)
        m_kalman = -1 if kalman is None else empirical(eps, kalman, derive(seed, idx, 1), bound)
        rows.append((eps, bound, m_oracle, m_kalman))
    _write_csv(
        args,
        ["epsilon", "m_min_bound", "m_min_empirical_oracle", "m_min_empirical_kalman"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# parser

_COMMANDS = {
    "fit": (cmd_fit, "fit the autoregressive surrogate"),
    "select-order": (cmd_select_order, "pick the order by CDF distance"),
    "generate": (cmd_generate, "emit simulated channel realizations"),
    "cdf": (cmd_cdf, "selection-gain CDF curves (exact, direct, particle)"),
    "interpolate": (cmd_interpolate, "reconstruct one realization from sparse ports"),
    "bench": (cmd_bench, "NMSE and timing over strategies and sizes"),
    "bound": (cmd_bound, "observation-count bound vs empirical requirement"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one flag per ``_PARAMS`` entry; argparse
    only collects the raw text, which ``_resolve`` converts."""
    parser = argparse.ArgumentParser(
        prog="faschan",
        description="Spatial correlation surrogate modeling and sparse-port channel reconstruction",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        sub.add_argument("--config", help="JSON file of parameter values; flags override it")
        for param in _params(command).values():
            text = param.help if param.default is None else f"{param.help} (default {param.default})"
            if param.convert is _switch:
                sub.add_argument(param.flag, dest=param.name, action="store_const", const="true", help=text)
            else:
                sub.add_argument(param.flag, dest=param.name, help=text)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
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
