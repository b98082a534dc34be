"""Measure every workload on several seeds and record a baseline entry.

Run from the root of a checkout::

    python3 perfbench/record.py --seeds 10 --label "first baseline"

Each seed is one untraced benchmark run, exactly as ``BENCHMARK.json``
describes it; one traced run per workload follows.  The script prints,
per end-to-end metric, the median, the quartiles and their spread (the
distance between the quartiles as a share of the median) next to the
metric's bound, and appends an entry to ``perfbench/baseline.json``: the
environment, each workload's definition and ``why``, the end-to-end
statistics, the traced per-layer values and table, and for in-process
workloads the serial backend's ``History`` digest of every measured seed
and of seeds ``0..DIGEST_SEEDS-1``.  ``run.py`` fails a run whose digest
differs from the one recorded for its seed in the same environment, so
a new entry's digests should differ only where a change is meant to
alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BASELINE_PATH, OUT_DIR, environment, inproc_rep
from workloads import WORKLOADS, serial_reference

#: The first measured seed.
FIRST_SEED = 100
#: Seeds 0.. whose digest is recorded besides the measured ones.
DIGEST_SEEDS = 16


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout[-3000:]}")
    return result


def describe(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def serial_digests(name: str, seeds) -> dict:
    """``seed -> History digest`` of the workload on the serial backend."""
    digests = {}
    for seed in seeds:
        rep = inproc_rep(serial_reference(WORKLOADS[name].config(seed)), False)
        if not rep.get("ok"):
            raise SystemExit(f"{name} seed {seed}: serial run failed: {rep}")
        digests[str(seed)] = rep["digest"]
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.label, "environment": environment(),
             "run_seconds": spec["run_seconds"], "workloads": {}}
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.seeds))
    for listed in spec["workloads"]:
        name = listed["name"]
        workload = WORKLOADS[name]
        samples: dict = {}
        for seed in seeds:
            for metric, value in bench(spec, name, seed, 0)["metrics"].items():
                samples.setdefault(metric, []).append(value["value"])
        stats = {metric: describe(values) for metric, values in samples.items()}
        print(f"== {name} (seeds {seeds[0]}..{seeds[-1]})")
        for metric, row in stats.items():
            bound = bounds[metric]
            verdict = ("steady" if row["spread"] < bound / 3 else
                       "within bound" if row["spread"] <= bound else "OVER BOUND")
            print(f"  {metric:22s} median {row['median']:.5g}  q1 {row['q1']:.5g}"
                  f"  q3 {row['q3']:.5g}  spread {row['spread']:.3f}"
                  f"  bound {bound}  {verdict}")
        traced = bench(spec, name, seeds[0], 1)
        with open(os.path.join(OUT_DIR, f"{name}-seed{seeds[0]}-trace1.json")) as handle:
            reps = json.load(handle)["reps"]
        table = next((rep["table"] for rep in reps if rep.get("table")), [])
        config = workload.config(0)
        config.pop("seed")
        entry["workloads"][name] = {
            "why": listed["why"],
            "definition": config,
            "end_to_end": stats,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layer_table": table,
        }
        if workload.kind == "inproc":
            entry["workloads"][name]["digests"] = serial_digests(
                name, list(range(DIGEST_SEEDS)) + seeds
            )
        sys.stdout.flush()
    history = []
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            history = json.load(handle)
    history.append(entry)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(history, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
