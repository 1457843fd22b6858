"""cdga benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload q111_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; cdga is imported from src/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds run metadata and details.

--trace 0 repeats whole passes over the workload's items until --seconds is
used up and reports wall_s (median pass time), item_p50_ms / item_p90_ms
(deciles over items of each item's median time across passes), setup_s
(median of separate set-up processes) and peak_rss_mb.  --trace 1 runs one untraced pass, then one
traced pass in each of two child processes with different hash seeds,
checks that every per-layer count agrees between them, and reports the
per-layer metrics of perfbench/tracing.py.  The seed sets only item order.
"""

import argparse
import collections
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def calibrate():
    """Seconds for a fixed pure-Python loop: machine speed, as metadata."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, rng, tracer=None):
    """One pass over the item list in a seeded order.

    Returns (wall seconds, {item id: seconds}, failed items, problems with
    the inputs); wall covers only the items, not building inputs or
    checking outputs.
    """
    inputs = workload.build()
    items = workload.items(inputs)
    rng.shuffle(items)
    gc.collect()
    if tracer is not None:
        tracer.install()
    clock = tracer.clock if tracer is not None else time.perf_counter
    outputs, times = [], {}
    try:
        start = clock()
        for item_id, thunk in items:
            t0 = clock()
            try:
                outputs.append((item_id, thunk(), None))
            except Exception as exc:  # any raise is a failed item
                outputs.append((item_id, None, f"{type(exc).__name__}: {exc}"))
            times[item_id] = clock() - t0
        wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for item_id, out, err in outputs:
        err = err or workload.check(item_id, out)
        if err:
            failures.append(f"{item_id}: {err}")
    return wall, times, failures, workload.setup_problems(inputs)


def child(args, env=None):
    """Run this script in a child process; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata():
    import cdga
    return {
        "python": sys.version.split()[0],
        "kernel_backend": cdga.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibrate(),
    }


def measure(workload, args):
    """--trace 0: end-to-end metrics."""
    setup = [child(["--workload", args.workload, "--setup-only"])["setup_s"]
             for _ in range(SETUP_REPEATS)]
    meta = metadata()
    rng = random.Random(args.seed)
    walls, failures, problems = [], [], set()
    times = collections.defaultdict(list)   # item id -> seconds per pass
    start = time.perf_counter()
    while True:
        wall, item_times, fails, probs = run_pass(workload, rng)
        walls.append(wall)
        for item_id, t in item_times.items():
            times[item_id].append(t)
        failures.extend(fails)
        problems.update(probs)
        # start another pass only if it ends nearer the budget than not
        if time.perf_counter() - start + wall / 2 > args.seconds:
            break
    # deciles over items of each item's median across passes: q111_sweep's
    # items form two clusters (non-formal 20-40 ms, formal 80-150 ms) that
    # meet at its median, where a pooled percentile would follow a few slow
    # samples of single items
    deciles = statistics.quantiles(
        [statistics.median(ts) for ts in times.values()], n=10,
        method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    attempted = len(walls) * len(times)
    problems = sorted(problems)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = dict(meta, passes=len(walls), pass_wall_s=walls,
                  items=len(times), item_samples=attempted,
                  setup_samples_s=setup,
                  failures=failures[:20], problems=problems)
    return attempted, failures, problems, metrics, detail


def traced(workload, args):
    """--trace 1: per-layer metrics from two traced child passes."""
    meta = metadata()
    wall, item_times, failures, problems = run_pass(
        workload, random.Random(args.seed))
    hash_base = (args.seed % 2 ** 31) * 2
    runs = [child(["--workload", args.workload, "--seed", str(args.seed),
                   "--traced-pass"],
                  env=dict(os.environ, PYTHONHASHSEED=str(hash_base + i)))
            for i in range(2)]
    problems = set(problems)
    for run in runs:
        failures.extend(run["failures"])
        problems.update(run["problems"])
    problems = sorted(problems)
    a, b = (run["counts"] for run in runs)
    if a != b:
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        problems.append(f"per-layer counts differ between runs: {keys[:10]}")
    traced_wall = statistics.mean(run["wall"] for run in runs)
    metrics = {"trace.overhead_s": (traced_wall - wall, "s")}
    for name, unit, _ in tracing.metric_specs():
        if name not in metrics:
            # times vary between the children; counts agree (checked above)
            vals = [run["values"][name] for run in runs]
            metrics[name] = (statistics.mean(vals) if unit == "s"
                             else vals[0], unit)
    detail = dict(meta, untraced_wall_s=wall, traced_wall_s=[
        run["wall"] for run in runs], edges=runs[0]["edges"][:40],
        failures=failures[:20], problems=problems)
    attempted = len(item_times) + sum(run["attempted"] for run in runs)
    return attempted, failures, problems, metrics, detail


def traced_pass(workload, args):
    """Child side of --trace 1: one traced pass, counts and values."""
    tracer = tracing.Tracer()
    wall, item_times, failures, problems = run_pass(
        workload, random.Random(args.seed), tracer)
    return {"wall": wall, "attempted": len(item_times), "failures": failures,
            "problems": problems,
            "counts": tracer.exact_counts(),
            "values": tracer.report(len(item_times)),
            "edges": tracer.edge_table()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--traced-pass", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "cdga" / "__init__.py").is_file():
        print(f"error: no cdga package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](workloads.load_references())

    if args.setup_only:
        t0 = time.perf_counter()
        workload.build()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.traced_pass:
        print(json.dumps(traced_pass(workload, args)))
        return 0

    run = traced if args.trace else measure
    attempted, failures, problems, metrics, detail = run(workload, args)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_frac=len(failures) / attempted)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
