#!/usr/bin/env bash
# Build atlc_benchmark (RelWithDebInfo) and run benchmark workloads.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-out FILE] [--smoke]
#
# Without --workload every workload of BENCHMARK.json runs, each in its own
# process, so that peak_rss_mb is per workload. --seconds defaults to
# BENCHMARK.json's run_seconds. Each run generates its input files from the
# seed into a scratch directory under .bench_build/, measures, checks the
# outputs and deletes the inputs. The metric lines and one JSON result line
# per workload go to stdout; build output goes to .bench_build/build.log.
# Exits non-zero when the build fails or any output is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
spec="$root/BENCHMARK.json"
build="$root/.bench_build"
ranks=4

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: the atlc sources are missing next to benchmark/" >&2
  exit 2
fi

read -r seconds workloads < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], *(w["name"] for w in spec["workloads"]))' "$spec")
if [ -z "$workloads" ]; then
  echo "run.sh: cannot read run_seconds and workloads from $spec" >&2
  exit 2
fi
seed=1
trace=0
trace_out=""
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --trace-out) trace_out="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

cpus="$(nproc)"
echo "# nproc $cpus, build RelWithDebInfo, $ranks ranks" >&2
if [ "$cpus" -lt "$ranks" ]; then
  echo "# warning: nproc $cpus < $ranks ranks; wall times are oversubscribed" >&2
fi

# Compiler and library temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >"$build/build.log" 2>&1 || { tail -n 30 "$build/build.log" >&2; exit 1; }
fi
cmake --build "$build" --target atlc_benchmark -j "$cpus" >>"$build/build.log" 2>&1 ||
  { tail -n 30 "$build/build.log" >&2; exit 1; }

export OMP_NUM_THREADS="$ranks"
work=""
trap '[ -z "$work" ] || rm -rf "$work"' EXIT
for w in $workloads; do
  work="$build/work/$w-$$"
  rm -rf "$work"
  mkdir -p "$work"
  "$build/atlc_benchmark" generate --workload "$w" --seed "$seed" \
    --dir "$work" "${smoke[@]}"
  args=(measure --workload "$w" --dir "$work" --spec "$spec"
        --seconds "$seconds" --trace "$trace" "${smoke[@]}")
  [ -z "$trace_out" ] || args+=(--trace-out "$trace_out")
  "$build/atlc_benchmark" "${args[@]}"
  rm -rf "$work"
done
