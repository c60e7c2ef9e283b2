"""qlanroute benchmark: the batch CLI commands timed end to end, plus a traced
run that times each module from outside.

    python3 perfbench/run.py --workload complement-64 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics
(``ops_per_s``, ``latency_p90_ms``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics. The line before it holds
details: sample count, median latency, error rate, first failures and,
when traced, the self time of every span. ``--smoke`` runs every
workload, untraced and traced, at tiny sizes and exits 0 only if every
output check passed. Workload sizes, generators, checks and predictions
are recorded in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = sorted(json.loads((HERE / "workloads.json").read_text())["workloads"])
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150
# One closed-loop client and no extra threads: numpy's BLAS pool stays at one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(repeats: int) -> float:
    """Median wall time for a fresh interpreter to import qlanroute.cli.

    One untimed import first, so bytecode compilation, which a user pays
    once, is not counted.
    """
    cmd = [sys.executable, "-c", "import qlanroute.cli"]
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, capture_output=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in its own worker process and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(result: dict) -> None:
    details = result.pop("details")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))


def smoke() -> int:
    """Every workload untraced and traced at tiny sizes; 0 when all checks pass."""
    setup_s = measure_setup(2)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_worker(workload, seed=0, seconds=0.2, trace=trace, smoke=True)
            if not trace:
                result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            ok &= result["correct"]
            _report(result)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, untraced and traced")
    args = parser.parse_args()
    if not (SRC / "qlanroute" / "cli.py").is_file():
        print(f"error: no qlanroute sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    setup_s = None if args.trace else measure_setup(SETUP_REPEATS)
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
