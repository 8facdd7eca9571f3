#!/usr/bin/env python3
"""Record one trajectory entry: every workload, untraced and traced.

usage: benchmark/trajectory.py OUT.json [--seed N] [--commit SHA]

Runs benchmark/run.sh for each workload of BENCHMARK.json with --trace 0
(end-to-end metrics) and --trace 1 (per-layer metrics) and writes one JSON
record with the host description, every metric tagged with its clock
(wall, virtual or none), and the cached-vs-uncached LCC comparison in both
clocks. Entries live in benchmark/trajectory/NNNN-<sha>.json.
"""
import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def clock(name):
    if name.endswith("_vs") or name.endswith("_v"):
        return "virtual"
    if name.endswith("_s") or "wall" in name or "trace_gap" in name:
        return "wall"
    return "none"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tagged(metrics):
    return {k: {"value": v["value"], "unit": v["unit"], "clock": clock(k)}
            for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--commit", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "commit": args.commit or commit(),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "build_type": "RelWithDebInfo", "ranks": 4,
                 "omp_num_threads": 4},
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        e2e = run(name, args.seed, spec["run_seconds"], 0)
        layers = run(name, args.seed, spec["run_seconds"], 1)
        record["workloads"][name] = {
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "end_to_end": tagged(e2e["metrics"]),
            "per_layer": tagged(layers["metrics"]),
        }
    wl = record["workloads"]
    if "lcc-cached" in wl and "lcc-uncached" in wl:
        c, u = wl["lcc-cached"]["end_to_end"], wl["lcc-uncached"]["end_to_end"]
        record["cached_over_uncached"] = {
            "solve_s": c["solve_s"]["value"] / u["solve_s"]["value"],
            "makespan_vs": c["makespan_vs"]["value"] / u["makespan_vs"]["value"],
            "clampi.host_overhead_s":
                wl["lcc-cached"]["per_layer"]["clampi.host_overhead_s"]["value"],
        }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(v["correct"] for v in wl.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
