"""Benchmark entry point: runs one workload of breatherlab and prints its metrics.

    python3 perfbench/run.py --workload stability --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in this one
process, with every BLAS/OpenMP pool pinned to one thread before numpy is
imported.  The last stdout line is the JSON result; human-readable progress
(set-up and round times, checks, reference figures) goes to stderr.  See
README.md for the workloads, metrics and checks.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# OpenBLAS, OpenMP and MKL read these when numpy loads them; numpy is first
# imported inside main(), through the workload modules
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("normal-form", "stability", "dispersion")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def thread_count():
    """Threads of this process, native BLAS threads included (-1 where /proc is missing)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "breatherlab" / "__init__.py").is_file():
        log(f"breatherlab sources not found under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    if tracer:
        tracer.install()

    setup_s = []
    for _ in range(wl.setup_reps):
        with span("bench.setup"):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        gc.collect()   # the previous round's garbage is not this round's cost
        with span("bench.round"):
            rounds.append(wl.run_round())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = wl.ops_per_round * len(rounds)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    log(f"{wl.name} seed {args.seed}: set-up " + " ".join(f"{t:.3f}" for t in setup_s) + " s")
    for key in rounds[0]:
        log(f"  {key}: " + " ".join(f"{r[key]:.4g}" for r in rounds))
    if tracer:
        tracer.uninstall()
        gc.collect()
        untraced = wl.run_round()["run_s"]
        attempted += wl.ops_per_round
        log(f"  untraced round for the overhead: {untraced:.4g} s")
        metrics = tracing.per_layer_metrics(tracer, median("run_s"), untraced)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.save(path)
        log(f"  {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    else:
        # the fastest set-up: a repetition is short, and a slow one is the
        # machine's hiccup, not more work
        metrics = {"setup_s": min(setup_s), "run_s": median("run_s"),
                   "peak_rss_mb": peak_rss_mb}

    for line in wl.log_lines():
        log("  " + line)
    checks = wl.checks()
    for check in checks:
        log("  " + str(check))
    log(f"  peak RSS {peak_rss_mb:.1f} MB, threads {thread_count()}")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                           "BENCHMARK.json")
    result = {
        "correct": all(c.passed for c in checks),
        "attempted": attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
