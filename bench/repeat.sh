#!/usr/bin/env bash
# Repeatability check: two alternating sets (A, B) of runs of the same code,
# every run on another seed, then per workload and end-to-end metric each
# set's median and quartiles and the set-to-set difference, failing if any
# exceeds its bound in BENCHMARK.json.
#
#   bench/repeat.sh [runs-per-set (default 5)] [workload ...]
#
# Run it from the repository root on an otherwise idle host. The log of
# result lines is kept under .bench_build/ so a table can be regenerated with
#   .bench_build/bench -summarize <log>
set -euo pipefail

runs=${1:-5}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	# The gated workloads are the ones BENCHMARK.json lists.
	mapfile -t workloads < <(awk '/"workloads"/{f=1} /"end_to_end"/{f=0} f && /"name"/{gsub(/[",]/,""); print $2}' BENCHMARK.json)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

mkdir -p .bench_build
log=.bench_build/repeat-$(date +%Y%m%d-%H%M%S).log
: >"$log"

for i in $(seq 1 "$runs"); do
	for w in "${workloads[@]}"; do
		# Alternate which set goes first so drift does not favour one.
		if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
		for set in $order; do
			seed=$i
			if [ "$set" = B ]; then seed=$((100 + i)); fi
			echo "run $i/$runs set $set $w seed $seed" >&2
			line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
			echo "$set $w $line" >>"$log"
		done
	done
done

echo "log: $log" >&2
.bench_build/bench -summarize "$log" -bounds BENCHMARK.json
