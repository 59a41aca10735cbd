#!/usr/bin/env python3
"""Self-test of the benchmark at a small size.

    python3 perfbench/selftest.py

Run it from the root of the repository. It builds the benchmark through
run.py and runs every workload with `--size small` (1.5k fleet requests,
about 10k plot points), checking that:

* the result line has exactly the keys correct/attempted/failed/metrics,
  every output check passed, and the stamp names the seed, the detected
  core count and the fleet thread count;
* every metric BENCHMARK.json names is emitted with its unit, and no
  other: the end-to-end metrics with --trace 0 (all nonzero), the
  per-layer metrics with --trace 1;
* a traced run's fleet.self_s + shard.serve_s equals its fleet.run_s;
* two runs with the same seed give bit-identical simulated metrics and
  per-layer counts;
* another seed changes the fleet session mix.

Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, OTHER_SEED = 1, 2

# Metrics that are pure functions of the seed: simulated time, counts,
# and the simulated slowdown.
def deterministic(name, unit):
    return unit in ("sim_ns", "count") or name == "sim_slowdown_x"


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        fleet = workload.startswith("fleet_")
        for trace in (0, 1):
            stamp, result = run(workload, SEED, trace)
            where = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            expect(result["correct"] and result["failed"] == 0, f"{where}: checks failed")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            expect(stamp["seed"] == SEED and stamp["detected_cores"] >= 1
                   and "fleet_threads" in stamp, f"{where}: stamp {stamp}")
            metrics = result["metrics"]
            names = {m["name"]: m["unit"] for m in wanted[trace]}
            expect(set(metrics) == set(names),
                   f"{where}: metrics differ by {set(metrics) ^ set(names)}")
            for name, unit in names.items():
                expect(metrics[name]["unit"] == unit, f"{where}: {name} unit")
                if trace == 0:
                    expect(metrics[name]["value"] != 0, f"{where}: {name} is 0")
            if trace == 1 and fleet:
                m = {k: v["value"] for k, v in metrics.items()}
                expect(m["fleet.self_s"] + m["shard.serve_s"] == m["fleet.run_s"],
                       f"{where}: self + serve != run")

            stamp2, again = run(workload, SEED, trace)
            for name, unit in names.items():
                if deterministic(name, unit):
                    a, b = metrics[name]["value"], again["metrics"][name]["value"]
                    expect(a == b, f"{where}: {name} {a} != {b} on the same seed")
            if fleet:
                expect(stamp2["session_mix"] == stamp["session_mix"], f"{where}: mix moved")
        if fleet:
            other, _ = run(workload, OTHER_SEED, 0)
            expect(other["session_mix"] != stamp["session_mix"],
                   f"{workload}: seed {OTHER_SEED} kept the session mix of seed {SEED}")
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
