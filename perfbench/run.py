"""querylab benchmark: one seeded workload, timed end to end or per layer.

    python3 perfbench/run.py --workload compose-eps --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a child interpreter
(worker.py), closed loop, one item at a time.  Set-up is timed from the
child's start to its "ready" line, several times, and reported as the
median.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  A fuller
record, with the machine facts, goes to perfbench/out/.  Exits 1 when any
output is wrong and 2 when the benchmark cannot run at all.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
TIMEOUT_S = 170


def tail_percentile(n):
    """Highest whole percentile that leaves at least 10 of n samples beyond it."""
    return max(p for p in range(100) if n - math.ceil(p * n / 100) >= 10)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def probe(seconds=0.5):
    """Host speed: iterations of a fixed stdlib Fraction loop in `seconds`."""
    count, end = 0, time.perf_counter() + seconds
    while time.perf_counter() < end:
        x = Fraction(1, 3)
        for k in range(1, 200):
            x = x * Fraction(k, k + 1) + Fraction(1, k)
        count += 1
    return count


def start_worker(args, deadline, *extra):
    """Start worker.py; returns (process, seconds from start to its ready line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for the worker until the deadline; returns its standard output."""
    try:
        return proc.communicate(timeout=max(deadline - time.monotonic(), 1))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None


def run_worker(args):
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(args, deadline, "--setup-only")
        finish(proc, deadline)
        setups.append(ready)
    proc, ready = start_worker(args, deadline)
    setups.append(ready)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return statistics.median(setups), json.loads(out.strip().splitlines()[-1])


def end_to_end(setup_s, res):
    """Every end-to-end figure as name -> (value, unit, note).

    The tail percentile is fixed by the fewest items a run of the workload
    makes, so it is the same in every run.
    """
    n = len(res["latencies"])
    p = tail_percentile(res["min_items"])
    figures = {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} set-ups"),
        "wall_s": (statistics.median(res["round_walls"]), "s",
                   f"median of {res['rounds']} rounds"),
        "item_p50_ms": (statistics.median(res["latencies"]) * 1000, "ms", ""),
        "item_tail_ms": (nearest_rank(res["latencies"], p) * 1000, "ms",
                         f"p{p} of {n} items"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", ""),
    }
    if res["cold_s"]:
        figures["cold_scan_s"] = (statistics.median(res["cold_s"]), "s",
                                  f"median of {len(res['cold_s'])} cold scans")
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "querylab" / "__init__.py").is_file():
        print("run.py: no querylab sources under src/; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    facts = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "probe_before": probe(),
    }
    try:
        setup_s, res = run_worker(args)
    except (RuntimeError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    facts["probe_after"] = probe()

    failed = len(res["failures"])
    attempted = res["attempted"]
    if args.trace:
        # A layer the workload never entered has no spans: it reads 0.
        figures = {m["name"]: (res["layers"].get(m["name"], 0), m["unit"], "")
                   for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        figures = end_to_end(setup_s, res)
        wanted = spec["end_to_end"]
    figures["failed_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} items")

    print(f"querylab bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items())
          + "  (probe: Fraction-loop iterations per 0.5 s)")
    for name, (value, unit, note) in sorted(figures.items()):
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for failure in res["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "figures": figures, "result": res,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
