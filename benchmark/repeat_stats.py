#!/usr/bin/env python3
"""Summarise two sets of benchmark result lines (see repeat.sh).

usage: repeat_stats.py BENCHMARK.json RESULTS_DIR

RESULTS_DIR holds <set>/<workload>/<seed>.json, each file one result line
of benchmark/run.sh. For each workload and end-to-end metric this prints
both sets' medians and quartile spreads, and whether the medians agree
within the metric's bound. Exits 1 if any run was wrong or failed to print
a result.
"""
import json
import pathlib
import statistics
import sys


def load(set_dir):
    runs = {}
    for path in sorted(set_dir.glob("*/*.json")):
        text = path.read_text().strip()
        runs.setdefault(path.parent.name, {})[path.stem] = (
            json.loads(text) if text.startswith("{") else None)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads(pathlib.Path(sys.argv[1]).read_text())
    root = pathlib.Path(sys.argv[2])
    a, b = load(root / "a"), load(root / "b")
    ok = True
    print(f"{'workload':20} {'metric':12} {'median a':>12} {'median b':>12} "
          f"{'spread a':>9} {'spread b':>9} {'bound':>6} agree  bit-identical")
    for workload in sorted(set(a) | set(b)):
        runs_a, runs_b = a.get(workload, {}), b.get(workload, {})
        bad = [s for s, r in list(runs_a.items()) + list(runs_b.items())
               if r is None or not r["correct"]]
        if bad:
            ok = False
            print(f"{workload}: wrong or missing result for seeds {bad}")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in runs_a.values()]
            vb = [r["metrics"][name]["value"] for r in runs_b.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            agree = abs(mb - ma) <= bound * ma
            same = ""
            if name.endswith("_vs"):
                same = "yes" if all(
                    runs_a[s]["metrics"][name] == runs_b[s]["metrics"][name]
                    for s in runs_a if s in runs_b) else "NO"
            print(f"{workload:20} {name:12} {ma:12.6g} {mb:12.6g} "
                  f"{spread(va):9.4f} {spread(vb):9.4f} {bound:6.2f} "
                  f"{'yes' if agree else 'NO':5}  {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
