#!/usr/bin/env python3
"""Smoke test of atlc_benchmark (run by CTest as benchmark_smoke).

Runs every workload of BENCHMARK.json on small inputs, once untraced and
once traced, and checks each result line: exactly the keys correct /
attempted / failed / metrics, no wrong output, and exactly the declared
end-to-end (untraced) or per-layer (traced) metrics with their units, the
end-to-end ones positive.

usage: check_result.py --benchmark-json FILE --binary EXE --work-dir DIR
"""
import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys


def check(result, declared, label, positive):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"wrong outputs: failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"metrics differ: missing {sorted(set(want) - set(metrics))}"
                      f", extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            errors.append(f"{name}: end-to-end value {value!r} is not positive")
    for e in errors:
        print(f"FAIL {label}: {e}")
    return not errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--binary", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    spec = json.loads(pathlib.Path(args.benchmark_json).read_text())
    work = pathlib.Path(args.work_dir)
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        d = work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        subprocess.run([args.binary, "generate", "--workload", name, "--seed",
                        "3", "--dir", str(d), "--smoke"], check=True)
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = f"{name} --trace {trace}"
            proc = subprocess.run(
                [args.binary, "measure", "--workload", name, "--dir", str(d),
                 "--spec", args.benchmark_json, "--seconds", "0", "--trace",
                 trace, "--smoke"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"FAIL {label}: exit {proc.returncode}")
                ok = False
                continue
            ok &= check(json.loads(lines[-1]), declared, label,
                        positive=trace == "0")
            print(f"ok   {label}")
        shutil.rmtree(d, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
