"""Benchmark harness for faschan: one CLI job per process, outputs checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, nothing is installed.  A run lasts about ``--seconds``
in all.  It first starts SETUP_FIRST fresh interpreters that only import
faschan, numpy and scipy, which also warms the file cache, then runs jobs of
the workload back to back, each preceded by one more such interpreter, so
that the set-up samples (``setup_s`` is their median) span the whole run as
the jobs do.  A job starts only if the longest job so far would still end
within ``--seconds`` of the run's start.  Each job is a fresh process running
one ``faschan`` command whose ``--seed`` is derived from the benchmark's seed
and the job's index; the library receives nothing else.  BLAS and OpenMP are
pinned to one thread and ``FAS_THREADS`` is set per workload.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(medians over the run's jobs).  With ``--trace 1`` jobs alternate untraced
and traced on the same argv; the traced job wraps faschan's public functions
from outside (see tracer.py), its ``--no-meta`` output must be byte-identical
to the untraced one, and the last line holds the per-layer metrics.

Every run also writes a full record (environment, argv, per-job figures,
checks) to benchmarks/out/.  Exit code 0 when the run completed, whether or
not its checks held; 2 when the checkout has no faschan source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_FIRST = 4
JOB_TIMEOUT_S = 120
# one BLAS/OpenMP thread: two OpenBLAS threads made one 200x200 eigh take
# 0.4 s instead of 6 ms in some processes.  No bytecode cache: every job
# compiles faschan the same way, and the checkout is left as it was found.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONDONTWRITEBYTECODE": "1"}


def job_seed(seed: int, index: int) -> int:
    """Library seed of job ``index``: a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"faschan-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _environment(threads: int) -> dict:
    return {**os.environ, **PINNED, "FAS_THREADS": str(threads), "PYTHONPATH": str(SRC)}


def _spawn(env: dict, extra: list[str], argv: "list[str] | None" = None) -> dict:
    """Start job.py, wait for it, and return its record; on failure, exit code and stderr tail."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "job.py"), "--t0", repr(t0), "--src", str(SRC), *extra]
    if argv is not None:
        cmd += ["--", *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"timed out after {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    record = json.loads(lines[-1])
    if record.get("exit_code", 0) != 0:
        record["error"] = proc.stderr.strip()[-2000:]
    return record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median(values):
    return statistics.median(values) if values else None


def main() -> int:
    from workloads import WORKLOADS  # this script's own directory is on sys.path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "faschan" / "cli.py").is_file():
        print(f"no faschan source under {SRC}; run from the root of a faschan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks read constants such as TIE_TOL
    workload = WORKLOADS[args.workload]
    env = _environment(workload.threads)

    start = time.perf_counter()
    setups: list[dict] = []

    def set_up() -> bool:
        setups.append(_spawn(env, ["--setup-only"]))
        if "setup_s" not in setups[-1]:
            print(f"set-up failed: {setups[-1]}", file=sys.stderr)
            return False
        return True

    if not all(set_up() for _ in range(SETUP_FIRST)):
        return 1

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()

    jobs: list[dict] = []
    attempted = failed = 0

    def run_job(index: int, traced: bool) -> dict:
        nonlocal attempted, failed
        seed = job_seed(args.seed, index)
        out = scratch / f"job{index}{'-traced' if traced else ''}.{workload.output}"
        argv = [*workload.argv(seed), "--no-meta", "--out", str(out)]
        record = _spawn(env, ["--trace"] if traced else [], argv)
        record.update(index=index, seed=seed, traced=traced, argv=argv[:-2])
        attempted += 1
        if record.get("exit_code") != 0 or not out.is_file():
            failed += 1
            record["checks"] = []
        else:
            items, checks = workload.check(out.read_text(encoding="utf-8"))
            record["items"] = items
            record["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
            attempted += len(checks)
            failed += sum(1 for _, ok, _ in checks if not ok)
        record["output"] = out
        jobs.append(record)
        return record

    index = 0
    longest = 0.0  # of one loop iteration: a set-up and a job, with --trace a set-up and two jobs
    while index == 0 or time.perf_counter() - start + longest <= args.seconds:
        began = time.perf_counter()
        if not set_up():
            return 1
        plain = run_job(index, traced=False)
        if args.trace:
            traced = run_job(index, traced=True)
            same = plain["output"].is_file() and traced["output"].is_file() and (
                plain["output"].read_bytes() == traced["output"].read_bytes())
            traced["checks"].append({"name": "traced_output_byte_identical", "ok": same, "detail": ""})
            attempted += 1
            failed += 0 if same else 1
        longest = max(longest, time.perf_counter() - began)
        index += 1
    measured_s = time.perf_counter() - start

    timed = [j for j in jobs if "wall_s" in j]
    plain_jobs = [j for j in timed if not j["traced"]]
    if not plain_jobs:
        print(f"no job produced a record: {jobs[0].get('error', '')}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        traced_jobs = [j for j in timed if j["traced"] and "layers" in j]
        if not traced_jobs:
            print("no traced job produced a record", file=sys.stderr)
            return 1
        values = {name: _median([j["layers"][name] for j in traced_jobs]) for name in traced_jobs[0]["layers"]}
        values["trace.overhead_frac"] = (
            _median([j["wall_s"] for j in traced_jobs]) / _median([j["wall_s"] for j in plain_jobs]) - 1.0
        )
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": _median([j["wall_s"] for j in plain_jobs]),
            "items_per_s": _median([j["items"] / j["wall_s"] for j in plain_jobs if "items" in j]) or 0.0,
            "cpu_s": _median([j["cpu_s"] for j in plain_jobs]),
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in plain_jobs]),
            "setup_s": _median([s["setup_s"] for s in setups]),
            "pass_frac": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    for job in jobs:
        job["output"] = job["output"].name
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "pins": {**PINNED, "FAS_THREADS": str(workload.threads)},
            **setups[0]["versions"],
        },
        "setup_s_samples": [s["setup_s"] for s in setups],
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if failed == 0:
        shutil.rmtree(scratch)
    for job in jobs:
        for check in job["checks"]:
            if not check["ok"]:
                print(f"check failed: job {job['index']} {check['name']} {check['detail']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
