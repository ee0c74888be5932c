"""One workload in its own interpreter: set up, run timed rounds, check.

Started by run.py.  Prints "ready" once set up (so the parent can time
set-up from interpreter start), then one JSON line with the results.  With
--setup-only it stops after "ready".

Rounds repeat until --seconds is spent; a round is not started when the
median round so far would overrun.  With --trace 1, untraced and traced
rounds alternate: the traced ones give the per-layer numbers and the
untraced ones the tracing overhead.
"""

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MODULES = ("core", "constructions", "det", "trees", "games", "lp", "harness",
           "registry", "cli")


def load(workload, seed):
    sys.path.insert(0, str(ROOT / "src"))
    q = SimpleNamespace(**{
        name: importlib.import_module(f"querylab.{name}") for name in MODULES
    })
    with open(ROOT / "perfbench" / "data" / "population.json") as handle:
        data = json.load(handle)
    OUT.mkdir(exist_ok=True)
    return q, workloads.WORKLOADS[workload](data, random.Random(seed), q, str(OUT))


def timed_rounds(work, seconds, recorder):
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        rec = recorder if recorder is not None and len(plain) > len(traced) else None
        if rec is not None:
            rec.reset()
            rec.install()
        try:
            rnd = work.run_round(rec)
        finally:
            if rec is not None:
                rec.uninstall()
        if rec is None:
            plain.append(rnd)
        else:
            rnd.layers = rec.layer_stats()
            traced.append(rnd)
        walls = [r.wall_s for r in plain + traced]
        spent = time.perf_counter() - begin
        enough = len(plain) >= (1 if recorder else work.min_rounds) and (
            recorder is None or traced)
        if enough and spent + statistics.median(walls) > seconds:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    q, work = load(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        work.close()
        return 0

    recorder = spans.Recorder(vars(q)) if args.trace else None
    try:
        plain, traced = timed_rounds(work, args.seconds, recorder)
    finally:
        work.close()
    rounds = plain + traced
    result = {
        "rounds": len(plain),
        "min_items": work.min_rounds * len(plain[0].latencies),
        "round_walls": [r.wall_s for r in plain],
        "latencies": [x for r in plain for x in r.latencies],
        "cold_s": [r.cold_s for r in plain if r.cold_s is not None],
        "attempted": sum(r.attempted for r in rounds),
        "failures": [f for r in rounds for f in r.failures],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        layers, unstable = spans.merge_rounds([r.layers for r in traced])
        layers["harness.cache_files_written"] = traced[0].cache_files
        layers["harness.cache_bytes_written"] = traced[0].cache_bytes
        layers["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(result["round_walls"])
        )
        result["traced_rounds"] = len(traced)
        result["layers"] = layers
        result["failures"] += [f"count {k} differs between traced rounds" for k in unstable]
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
