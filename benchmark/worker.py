"""Benchmark worker: one fresh process per setup probe or measured run.

Reads the inputs file the runner wrote, imports the library, parses every
input, runs one untimed warm-up job and prints READY; the runner times the
process from spawn to that line as set-up. In `run` mode it then runs the job
stream for --seconds in a closed loop; in `trace` mode it runs a fixed job
list twice, untraced and traced, alternating one cycle at a time. The last
line of output is a JSON result.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time

from tracing import Tracer
from workloads import JOBS, Context, JobFailed, layer_metrics, prepare, stream


def run_jobs(ctx: Context, jobs, seconds: float | None = None):
    """Closed loop: each job starts when the previous one ends."""
    latencies = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    for index, kind, inp in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        ctx.tracer.job = index
        t0 = time.perf_counter()
        try:
            with ctx.tracer.span("job"):
                JOBS[kind](ctx, inp)
        except JobFailed as exc:
            ctx.errors[exc.layer] += 1
            failed += 1
            print(f"job {index} ({kind}) failed: {exc}", file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
    return latencies, failed, time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    with open(args.inputs) as fh:
        data = json.load(fh)
    tracer = Tracer(args.mode == "trace")
    ctx = Context(tracer)
    pool, warm = prepare(data, ctx)
    tracer.enabled = False
    JOBS[warm["kind"]](ctx, warm["input"])
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    cycle = data["cycle"]
    result = {"env": environment()}
    if args.mode == "run":
        ctx = Context(tracer, corrupt=args.corrupt)
        lat, failed, wall = run_jobs(ctx, stream(pool, cycle), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed += ctx.verify_claims()
        deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        result.update({
            "attempted": len(lat), "failed": failed,
            "jobs_per_s": len(lat) / wall,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "beyond_p90": sum(1 for x in lat if x > deciles[8]),
            "peak_rss_mb": peak_rss_mb,
        })
    else:
        parse_s = tracer.self_times().get("formula.parse", 0.0)
        count = data["trace_jobs"]
        jobs = list(stream(pool, cycle, count))
        plain, ctx = Context(tracer), Context(tracer)
        plain_wall = traced_wall = 0.0
        failed = 0
        # Untraced and traced passes alternate one cycle at a time, so a
        # change of machine speed during the run falls on both alike.
        for i in range(0, count, len(cycle)):
            chunk = jobs[i:i + len(cycle)]
            plain_wall += run_jobs(plain, chunk)[2]
            tracer.enabled = True
            _, chunk_failed, wall = run_jobs(ctx, chunk)
            tracer.enabled = False
            failed += chunk_failed
            traced_wall += wall
        failed += ctx.verify_claims()
        layers = layer_metrics(tracer.self_times(), ctx.counts, ctx.errors, parse_s)
        layers["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "ratio")
        layers["trace.jobs"] = (float(count), "count")
        result.update({"attempted": count, "failed": failed,
                       "layers": {k: list(v) for k, v in layers.items()}})
        if args.trace_out:
            tracer.write_json(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
