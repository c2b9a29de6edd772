"""Spans around faschan's public functions, installed from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with one timing wrapper, in every ``faschan`` namespace that holds a
reference to it (``selection_gain`` imports ``simulate_batch`` by name,
``cli`` calls through ``arfit.`` and ``generator.``).  One wrapper exists per
function, so a call is counted once whichever namespace it came through.

Each thread keeps its own stack of open spans.  The ``ThreadPoolExecutor``
that ``arfit`` and ``selection_gain`` fan out on is replaced by a subclass
that carries the submitting span into the worker thread, so spans opened
there are children of the span that started the pool.  A span's self time is
its duration minus the union of its children's intervals, which stays
correct when two worker threads overlap.

The program's code is not changed: the wrappers live in this process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

MODULES = ("correlation", "arfit", "generator", "rng", "stats", "selection_gain", "interpolation", "cli")
# the command handlers in cli are the CLI layer itself; its one span is main
CLI_ENTRY = "main"
# private per-threshold particle run: timed for selection_gain.threshold_s,
# but transparent, so its children still count against smc_cdf's self time
TRANSPARENT = {"selection_gain": ("_evaluate_threshold",)}
COMPLEX_BYTES = 16


class SpanStats:
    __slots__ = ("calls", "busy", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors: dict[str, int] = {}


class _Frame:
    __slots__ = ("children",)

    def __init__(self):
        self.children: list[tuple[float, float]] = []


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Aggregated span statistics plus the counters derived from call arguments."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._patterns: set[tuple] = set()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, duration: float, self_time: float, error: "str | None"):
        with self._lock:
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.calls += 1
            stats.busy += duration
            stats.self_time += self_time
            if error is not None:
                stats.errors[error] = stats.errors.get(error, 0) + 1

    def count(self, name: str, value: float = 1.0):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def count_max(self, name: str, value: float):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0.0), value)

    def _wrap(self, name: str, fn, observe=None, transparent: bool = False):
        params = list(inspect.signature(fn).parameters) if observe else []

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = None if transparent else _Frame()
            if frame is not None:
                stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                if frame is not None:
                    stack.pop()
                    if parent is not None:
                        parent.children.append((start, end))
                    own = end - start - _covered(frame.children, start, end)
                else:
                    own = 0.0
                self._record(name, end - start, own, error)
            if observe is not None:
                named = dict(zip(params, args))
                named.update(kwargs)
                observe(self, named, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                if not stack:
                    return super().submit(fn, *args, **kwargs)
                parent = stack[-1]

                def run(*a, **k):
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        worker_stack.pop()

                return super().submit(run, *args, **kwargs)

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of MODULES in every faschan namespace."""
        modules = {name: importlib.import_module(f"faschan.{name}") for name in MODULES}
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if getattr(value, "__wrapped_by_tracer__", False):
                    raise RuntimeError(f"{short}.{attr} is already traced")
                transparent = attr in TRANSPARENT.get(short, ())
                public = not attr.startswith("_") and (short != "cli" or attr == CLI_ENTRY)
                if not (public or transparent):
                    continue
                name = f"{short}.{attr}"
                replacements[id(value)] = self._wrap(
                    name, value, OBSERVERS.get(name), transparent=transparent
                )
        pool = self._pool_class()
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "faschan" or n.startswith("faschan.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    setattr(module, attr, replacements[id(value)])
                elif value is ThreadPoolExecutor:
                    setattr(module, attr, pool)

    # -- pattern bookkeeping for the reconstruction routes ----------------

    def see_pattern(self, key: tuple):
        with self._lock:
            repeat = key in self._patterns
            self._patterns.add(key)
        self.count("interpolation.reconstructions")
        if repeat:
            self.count("interpolation.repeat_patterns")


def _observe_simulate_batch(tracer: Tracer, args: dict, result):
    config = args["config"]
    rows = int(args["count"])
    tracer.count("generator.port_steps", rows * (config.B + config.N))
    tracer.count("generator.ports_kept", rows * config.N)
    tracer.count_max(
        "generator.batch_bytes", rows * (args["model"].p + config.B + config.N) * COMPLEX_BYTES
    )


def _observe_sample_exact(tracer: Tracer, args: dict, result):
    tracer.count("correlation.sample_exact.rows", int(args["count"]))


def _observe_smc_cdf(tracer: Tracer, args: dict, result):
    steps = result.extinction_steps
    tracer.count("selection_gain.thresholds", len(steps))
    tracer.count("selection_gain.extinct", sum(1 for s in steps if s >= 0))


def _observe_kalman(tracer: Tracer, args: dict, result):
    tracer.count("interpolation.kalman_smooth.ports", int(args["N"]))
    obs = args["obs"]
    tracer.see_pattern(("kalman", int(args["N"]), obs.indices.tobytes()))


def _observe_dense(tracer: Tracer, args: dict, result):
    obs = args["obs"]
    tracer.see_pattern(("dense", int(args["cov"].N), obs.indices.tobytes()))


OBSERVERS = {
    "generator.simulate_batch": _observe_simulate_batch,
    "correlation.sample_exact": _observe_sample_exact,
    "selection_gain.smc_cdf": _observe_smc_cdf,
    "interpolation.kalman_smooth": _observe_kalman,
    "interpolation.dense_mmse": _observe_dense,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced job, keyed by metric name."""
    spans = tracer.spans
    counters = tracer.counters

    def span(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    out: dict[str, float] = {"cli.self_s": span("cli.main").self_time}
    for name in (
        "correlation.eigen_spectrum",
        "correlation.sample_exact",
        "arfit.fit_clarke_model",
        "arfit.check_stability",
        "generator.simulate_batch",
        "rng.make_rng",
        "stats.ks_distance",
        "stats.max_gain",
        "selection_gain.smc_cdf",
        "selection_gain.empirical_cdf_max_gain",
        "interpolation.kalman_smooth",
        "interpolation.dense_mmse",
        "interpolation.port_select",
        "interpolation.nmse",
    ):
        out[f"{name}.busy_s"] = span(name).busy
    for name in (
        "arfit.fit_clarke_model",
        "generator.simulate_batch",
        "rng.make_rng",
        "interpolation.kalman_smooth",
        "interpolation.dense_mmse",
    ):
        out[f"{name}.calls"] = span(name).calls
    for name in ("arfit.select_order", "selection_gain.smc_cdf", "interpolation.empirical_min_observations"):
        out[f"{name}.self_s"] = span(name).self_time

    steps = counters.get("generator.port_steps", 0.0)
    out["correlation.sample_exact.rows"] = counters.get("correlation.sample_exact.rows", 0.0)
    out["generator.port_steps"] = steps
    out["generator.port_steps_per_s"] = ratio(steps, span("generator.simulate_batch").busy)
    out["generator.useful_frac"] = ratio(counters.get("generator.ports_kept", 0.0), steps)
    out["generator.batch_mb_computed"] = counters.get("generator.batch_bytes", 0.0) / 1e6

    threshold = span("selection_gain._evaluate_threshold")
    out["selection_gain.threshold_s"] = ratio(threshold.busy, threshold.calls)
    out["selection_gain.resamples"] = span("selection_gain.systematic_resample").calls
    out["selection_gain.extinct_frac"] = ratio(
        counters.get("selection_gain.extinct", 0.0), counters.get("selection_gain.thresholds", 0.0)
    )

    kalman = span("interpolation.kalman_smooth")
    dense = span("interpolation.dense_mmse")
    out["interpolation.kalman_smooth.us_per_port"] = ratio(
        kalman.busy, counters.get("interpolation.kalman_smooth.ports", 0.0), 1e6
    )
    out["interpolation.dense_mmse.us_per_call"] = ratio(dense.busy, dense.calls, 1e6)
    out["interpolation.repeat_pattern_frac"] = ratio(
        counters.get("interpolation.repeat_patterns", 0.0),
        counters.get("interpolation.reconstructions", 0.0),
    )
    out["interpolation.failed_calls"] = sum(
        stats.errors.get("NumericalError", 0)
        for name, stats in spans.items()
        if name.startswith("interpolation.")
    )
    return out


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Every span's calls, busy and self time, for the result record."""
    return {
        name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time, "errors": dict(s.errors)}
        for name, s in sorted(tracer.spans.items())
    }
