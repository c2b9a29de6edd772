"""One benchmark job: a fresh process that runs a single ``faschan`` CLI command.

Usage (started by ``run.py``, which sets PYTHONPATH and the thread pins):

    python3 benchmarks/job.py --t0 T --src SRC [--setup-only] [--trace] -- ARGV...

``--t0`` is the CLOCK_MONOTONIC reading taken just before this process was
started; it is system-wide, so ``setup_s`` is the time from that moment
until ``faschan``, ``numpy`` and ``scipy`` are imported.  The job then calls
``faschan.cli.main(ARGV)`` and prints one JSON record as its last line of
standard output: exit code, wall and CPU time of the call, peak RSS, and
with ``--trace`` the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--src", required=True, help="directory that must hold the imported faschan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (imported by faschan; timed as part of set-up)

    import faschan
    import faschan.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    src = os.path.realpath(args.src)
    if not os.path.realpath(faschan.__file__).startswith(src + os.sep):
        raise SystemExit(f"faschan was imported from {faschan.__file__}, not from {src}")
    record = {"setup_s": ready - args.t0}
    if args.setup_only:
        record["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_version(numpy),
            "faschan": faschan.__version__,
        }
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # this script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = faschan.cli.main(args.argv)
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    record.update(
        exit_code=code,
        wall_s=wall,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if tracer is not None:
        from tracer import layer_metrics, span_table

        record["layers"] = layer_metrics(tracer)
        record["spans"] = span_table(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
