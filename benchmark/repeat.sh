#!/usr/bin/env bash
# Repeatability check: two sets of K full runs of the same commit, run
# alternately (a b, b a, ...), seeds 1..K in both sets.
#
#   benchmark/repeat.sh K [--seconds S] [--workload "NAME ..."]
#
# For every workload and end-to-end metric it prints each set's median and
# quartile spread (IQR / median) over its K seeds, whether the two medians
# agree within the metric's bound from BENCHMARK.json, and whether virtual
# metrics (names ending in _vs) are bit-identical seed by seed. Raw result
# lines are kept under .bench_build/repeat/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
k="${1:?usage: benchmark/repeat.sh K [--seconds S] [--workload \"NAME ...\"]}"
shift
read -r seconds workloads < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], *(w["name"] for w in spec["workloads"]))' \
  "$root/BENCHMARK.json")
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads="$2"; shift 2 ;;
    *) echo "repeat.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

out="$root/.bench_build/repeat/$(date +%Y%m%d-%H%M%S)"
for i in $(seq 1 "$k"); do
  if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for set in $order; do
    for w in $workloads; do
      mkdir -p "$out/$set/$w"
      bash "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" \
        2>/dev/null | tail -n 1 >"$out/$set/$w/$i.json"
    done
  done
  echo "# repeat: round $i/$k done" >&2
done
python3 "$here/repeat_stats.py" "$root/BENCHMARK.json" "$out"
