"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed 1] [--seconds 5]

Runs every workload traced twice at one seed.  Fails when a count differs
between the two runs, or when a per-layer metric reads 0 on the workload
named below as its heavy one: that is how a missed import site shows up.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metric -> the workload on which it must read non-zero.
HEAVY = {
    "lp.solve_lp.calls": "compose-eps",
    "lp.solve_lp.self_s": "compose-eps",
    "lp.verify.calls": "compose-eps",
    "lp.verify.self_s": "compose-eps",
    "lp.rows_total": "compose-eps",
    "lp.cols_total": "compose-eps",
    "games.solve_expected_game.calls": "compose-eps",
    "games.solve_expected_game.self_s": "compose-eps",
    "games.colgen_iterations": "compose-eps",
    "games.solve_worstcase_depth.calls": "scan-cache",
    "games.solve_worstcase_depth.self_s": "scan-cache",
    "games.best_response.calls": "scan-cache",
    "games.best_response.self_s": "scan-cache",
    "trees.walk.calls": "scan-cache",
    "trees.walk.self_s": "scan-cache",
    "det.det_complexity.calls": "det-sweep4",
    "det.det_complexity.self_s": "det-sweep4",
    "det.certificate_complexity.calls": "det-sweep4",
    "det.certificate_complexity.self_s": "det-sweep4",
    "det.block_sensitivity.calls": "det-sweep4",
    "det.block_sensitivity.self_s": "det-sweep4",
    "det.fractional_block_sensitivity.calls": "scan-cache",
    "det.fractional_block_sensitivity.self_s": "scan-cache",
    "constructions.sabotage.calls": "det-sweep4",
    "constructions.sabotage.self_s": "det-sweep4",
    "constructions.unique_sabotage.calls": "scan-cache",
    "constructions.unique_sabotage.self_s": "scan-cache",
    "constructions.compose.calls": "compose-eps",
    "constructions.compose.self_s": "compose-eps",
    "harness.measure_entry.calls": "scan-cache",
    "harness.measure_entry.self_s": "scan-cache",
    "harness.engine_calls_per_entry": "scan-cache",
    "harness.cache_files_written": "scan-cache",
    "harness.cache_bytes_written": "scan-cache",
    "registry.check.calls": "compose-eps",
    "registry.check.self_s": "compose-eps",
    "cli.main.calls": "scan-cache",
    "cli.main.self_s": "scan-cache",
    "core.parse_function.calls": "scan-cache",
    "core.parse_function.self_s": "scan-cache",
}
# Times and the overhead are not counts; they need not repeat.
NOT_COUNTS = ("_s",)


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    problems = [f"{n} has no heavy workload" for n in names
                if n not in HEAVY and n != "trace.overhead_s"]
    for workload in sorted({w["name"] for w in spec["workloads"]}):
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for name in names:
            if not name.endswith(NOT_COUNTS) and first[name] != second[name]:
                problems.append(f"{workload}: {name} {first[name]} then {second[name]}")
            if HEAVY.get(name) == workload and not first[name] > 0:
                problems.append(f"{workload}: {name} reads {first[name]}")
        print(f"{workload}: traced twice", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
