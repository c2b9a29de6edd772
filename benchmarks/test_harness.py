"""Self-tests of the benchmark's tracer and work-item replay.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, _covered  # noqa: E402
from workloads import bisection_probes  # noqa: E402


def test_covered_is_union_clipped_to_span():
    assert _covered([], 0.0, 1.0) == 0.0
    assert _covered([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert _covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_self_time_excludes_children_across_pool_threads():
    tracer = Tracer()
    pool_class = tracer._pool_class()

    def leaf():
        time.sleep(0.05)

    traced_leaf = tracer._wrap("m.leaf", leaf)

    def parent():
        with pool_class(max_workers=2) as pool:
            list(pool.map(lambda _: traced_leaf(), range(2)))

    tracer._wrap("m.parent", parent)()
    spans = tracer.spans
    assert spans["m.leaf"].calls == 2
    # the two leaves overlap, so the parent's self time is its span minus one leaf, not two
    assert spans["m.parent"].self_time < spans["m.parent"].busy - 0.045
    assert spans["m.parent"].self_time >= 0.0


@pytest.fixture
def restore_faschan():
    """Put back every faschan module attribute that Tracer.install replaced."""
    import faschan.cli  # noqa: F401  (imports every traced module)

    saved = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "faschan" or name.startswith("faschan.")}
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


def test_install_wraps_each_function_once(restore_faschan):
    import faschan.arfit
    import faschan.generator
    import faschan.selection_gain

    Tracer().install()
    # one wrapper object, installed in every namespace that held the function
    assert faschan.selection_gain.simulate_batch is faschan.generator.simulate_batch
    assert faschan.generator.check_stability is faschan.arfit.check_stability
    assert hasattr(faschan.generator.simulate_batch, "__wrapped_by_tracer__")
    with pytest.raises(RuntimeError):
        Tracer().install()


def test_bisection_probes_matches_the_library():
    from faschan.interpolation import empirical_min_observations

    n, lo = 100, 2
    for answer in (2, 3, 5, 7, 51, 99, 100):
        calls = []

        def truth_sampler(seed, count):
            calls.append(seed[-1])
            return np.ones((count, n))

        def estimator(obs, answer=answer):
            # exact from M = answer observations on, NMSE 1 below it
            return SimpleNamespace(means=np.zeros(n) if obs.M < answer else np.ones(n))

        def select(m, seed):
            return np.arange(1, m + 1)

        got = empirical_min_observations(0.0, 2, 0, estimator, truth_sampler, select, n, min_m=lo)
        assert got == answer
        assert bisection_probes(answer, lo, n) == len(calls)
