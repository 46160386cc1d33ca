"""Benchmark runner for hybridts.

    python3 benchmark/run.py --workload classical-search --seed 1 --seconds 30 --trace 0

Makes the workload's inputs from the seed, then runs fresh worker processes
with BLAS pinned to one thread: a few set-up probes and one measured worker. With --trace 0 it reports the end-to-end metrics
(set-up time is the median over all workers); with --trace 1 the per-layer
metrics of a traced run, and it writes the spans to benchmark/results/. The
last line of output is one JSON object.
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
RESULTS = HERE / "results"
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170

# One BLAS thread: with two, the walk's dense Schur steps vary run to run
# by several times on a two-core machine.
THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS
os.environ.pop("HYBRIDTS_DIM_CAP", None)  # measure the library's default caps
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, generate  # noqa: E402  (needs the path above)


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker; return (seconds from spawn to READY, final line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - start
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "READY" or proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one bit of the first checked model (negative control)")
    args = ap.parse_args()
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = RESULTS / f"inputs-{tag}.json"
    data = generate(args.workload, args.seed, args.seconds, args.tiny)
    inputs.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        setups = [spawn(["--inputs", str(inputs), "--mode", "setup"], env, deadline)[0]
                  for _ in range(SETUP_PROBES)]
        cmd = ["--inputs", str(inputs), "--mode", "trace" if args.trace else "run",
               "--seconds", str(args.seconds)]
        if args.trace:
            cmd += ["--trace-out", str(RESULTS / f"trace-{tag}.json")]
        if args.corrupt:
            cmd.append("--corrupt")
        main_setup, line = spawn(cmd, env, deadline)
    finally:
        inputs.unlink(missing_ok=True)
    setups.append(main_setup)
    res = json.loads(line)

    env_rec = dict(res["env"], nproc=os.cpu_count(), blas_threads=THREADS)
    print("env " + " ".join(f"{k}={v}" for k, v in env_rec.items()))
    if args.trace:
        print(f"spans {RESULTS / f'trace-{tag}.json'}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": res["jobs_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": res["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": res["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"error_rate {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']} jobs)")
        print(f"latency samples {res['attempted']}, beyond p90 {res['beyond_p90']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
