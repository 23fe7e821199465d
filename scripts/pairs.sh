#!/bin/sh
# pairs: a paired benchmark comparison in one command, outside ci:
#
#   make pairs BASE=<git ref> WORKLOADS="comm_mem comm_tcp" PAIRS=10
#   sh scripts/pairs.sh <git ref> "<workload ...>" <pairs>
#
# BASE is extracted with `git archive` (nothing is registered in .git, as in
# sweepdiff.sh) and its bench binary is built next to the working tree's with
# the same flags: -trimpath and -buildvcs=false, so neither binary carries its
# checkout path or commit and identical sources give identical binaries. Both
# are copied into one run directory and every run starts there, so the two
# sides differ in their code only (a binary run from its own checkout can
# read a few percent apart on identical code).
#
# A binary has one code layout, and a change that only moves addresses can
# read as a speed-up or a regression (Mytkowicz et al., ASPLOS 2009). So each
# side is linked at K = 5 layouts, -ldflags=-randlayout=o+s for s = 1…K, and
# pair i runs both sides at s = i mod K + 1, so every seed is sampled. K is
# fixed: a floor recorded at one K cannot vouch for a claim measured at
# another, and at K = 1 the across-layout IQR is 0. The offset o is K times
# the number of earlier run directories against the same base commit (each
# records its resolved base in a file named base), so a rerun links fresh
# layouts instead of repeating the last run's ten binaries; a first run
# links at 1…K. The header prints the seeds.
# The linker shuffles each binary's own function list with s: two sides with
# different functions draw different layouts from one seed, so a pair is
# seed-matched, not one layout. Per workload, pair i runs seed i on both
# sides at BENCHMARK.json's run_seconds, base first on odd i and the working
# tree first on even i. Held-out seed 2002 runs twice at s = 2002 mod K + 1,
# reported apart: base first, then the working tree first, so a Δ that
# follows the order rather than the code shows as two readings that
# disagree. BASE=HEAD on a clean tree is the A/A mode: the host's noise
# floor, layout included, which a claim's gap should clear.
#
# Output, besides the run log (.bench_build/pairs-*/log: one
# "<set> <workload> <result JSON>" line per run, A = base, B = working tree,
# HA/HB = held-out; the n-th A or B line of a workload is pair n): bench
# -summarize's table over sets A and B, then per workload and end-to-end
# metric one perf-log row — base and working-tree median [q1, q3], Δ of the
# medians, wins (pairs where the working tree is better in the metric's own
# direction), one arrow per pair (↑ better, ↓ worse, = equal), each side's
# run IQR (q3 − q1 over its runs) and across-layout IQR (the quartiles of its
# K per-layout medians), both in % of its median, and the held-out Δ,
# base-first / tree-first. A claim needs ≥ 9/10 wins and a |Δ| above both of
# the base's IQRs.
set -eu

GO=${GO:-go}
BASE=${1:?usage: pairs.sh <git ref> "<workload ...>" [pairs]}
WORKLOADS=${2:?usage: pairs.sh <git ref> "<workload ...>" [pairs]}
PAIRS=${3:-10}
layouts=5
HELDOUT=2002

seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
commit=$(git rev-parse --verify "$BASE^{commit}")
earlier=$(cat .bench_build/pairs-*/base 2>/dev/null | grep -cx "$commit" || true)
offset=$((layouts * earlier))
run=$(pwd)/.bench_build/pairs-$(date +%Y%m%d-%H%M%S)
mkdir -p "$run/src"
echo "$commit" >"$run/base"
git archive "$commit" | tar -x -C "$run/src"

# The build environment of bench/run.sh, plus the path- and VCS-free flags.
out=$(pwd)/.bench_build
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS="-trimpath -buildvcs=false"
echo "pairs: building bench at $BASE ($commit) and in the working tree, $layouts layouts each, -randlayout seeds $((offset + 1))…$((offset + layouts))" >&2
s=1
while [ "$s" -le "$layouts" ]; do
	(cd "$run/src/bench" && $GO build -ldflags="-randlayout=$((offset + s))" -o "$run/bench-base-$s" .)
	(cd bench && $GO build -ldflags="-randlayout=$((offset + s))" -o "$run/bench-tree-$s" .)
	if cmp -s "$run/bench-base-$s" "$run/bench-tree-$s"; then
		echo "pairs: layout $s: the two binaries are identical (A/A)" >&2
	fi
	s=$((s + 1))
done
rm -rf "$run/src"

one() { # one <set> <binary> <workload> <seed>: at the seed's layout
	bin="$2-$(($4 % layouts + 1))"
	echo "pairs: $3 seed $4 $bin" >&2
	line=$(cd "$run" && "./$bin" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
	echo "$1 $3 $line" >>"$run/log"
}
: >"$run/log"
for w in $WORKLOADS; do
	i=1
	while [ "$i" -le "$PAIRS" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			one A bench-base "$w" "$i"
			one B bench-tree "$w" "$i"
		else
			one B bench-tree "$w" "$i"
			one A bench-base "$w" "$i"
		fi
		i=$((i + 1))
	done
	one HA bench-base "$w" "$HELDOUT"
	one HB bench-tree "$w" "$HELDOUT"
	one HB bench-tree "$w" "$HELDOUT"
	one HA bench-base "$w" "$HELDOUT"
done

echo "log: $run/log"
"$run/bench-tree-1" -summarize "$run/log" -bounds BENCHMARK.json || true

# Metric directions, in BENCHMARK.json's end_to_end order.
better=$(awk '/"end_to_end"/{f=1} /"per_layer"/{f=0}
	f && /"name"/{gsub(/[",]/, ""); n=$2} f && /"better"/{gsub(/[",]/, ""); printf "%s:%s ", n, $2}' BENCHMARK.json)

awk -v better="$better" -v heldout="$HELDOUT" -v layouts="$layouts" '
function value(json, m,    s) {
	if (!match(json, "\"" m "\":\\{\"value\":[-+0-9.eE]+")) return ""
	s = substr(json, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# quantile: bench/stats.go quartiles (Python statistics.quantiles, exclusive).
function quantile(a, n, q,    j, d) {
	if (n == 1) return a[1]
	j = int(q * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = q * (n + 1) - j * 4
	return (a[j] * (4 - d) + a[j+1] * d) / 4
}
function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
function stat(set, w, m,    a, i, n) {
	n = cnt[set, w]
	for (i = 1; i <= n; i++) a[i] = v[set, w, m, i]
	sort(a, n)
	med = median(a, n); q1 = quantile(a, n, 1); q3 = quantile(a, n, 3)
	iqr = med == 0 ? 0 : 100 * (q3 - q1) / med
	return sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
}
# spread: the across-layout IQR of a set, in % of the median stat() left in
# med: pair c ran at layout c mod K, and the quartiles are those of the
# per-layout medians.
function spread(set, w, m,    a, l, c, i, n, lm, nl) {
	nl = 0
	for (l = 0; l < layouts; l++) {
		n = 0
		for (c = 1; c <= cnt[set, w]; c++) if (c % layouts == l) a[++n] = v[set, w, m, c]
		if (n == 0) continue
		sort(a, n); lm[++nl] = median(a, n)
	}
	sort(lm, nl)
	return med == 0 ? 0 : 100 * (quantile(lm, nl, 3) - quantile(lm, nl, 1)) / med
}
function gain(a, b, m) { return dir[m] == "lower" ? a - b : b - a }
# hdelta: the Δ of held-out run i (1: base first, 2: tree first), or –.
function hdelta(w, m, i) {
	if (cnt["HA", w] < i || cnt["HB", w] < i || v["HA", w, m, i] == 0) return "–"
	return sprintf("%+.1f %%", 100 * (v["HB", w, m, i] - v["HA", w, m, i]) / v["HA", w, m, i])
}
BEGIN {
	nm = split(better, pairs, " ")
	for (k = 1; k <= nm; k++) { split(pairs[k], f, ":"); metric[k] = f[1]; dir[f[1]] = f[2] }
}
{
	set = $1; w = $2; json = $0; sub(/^[^ ]+ [^ ]+ /, "", json)
	if (!((set, w) in cnt)) cnt[set, w] = 0
	c = ++cnt[set, w]
	if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
	for (k = 1; k <= nm; k++) v[set, w, metric[k], c] = value(json, metric[k])
}
END {
	print ""
	print "| workload | metric | base median [q1, q3] | working tree median [q1, q3] | Δ | wins | pairs (seed 1…) | run IQR (base / tree) | layout IQR (base / tree) | seed " heldout " Δ (base first / tree first) |"
	print "|---|---|---|---|---|---|---|---|---|---|"
	for (x = 1; x <= nw; x++) {
		w = order[x]
		for (k = 1; k <= nm; k++) {
			m = metric[k]
			a = stat("A", w, m); am = med; ra = iqr; sa = spread("A", w, m)
			b = stat("B", w, m); bm = med; rb = iqr; sb = spread("B", w, m)
			n = cnt["A", w] < cnt["B", w] ? cnt["A", w] : cnt["B", w]
			wins = 0; arrows = ""
			for (i = 1; i <= n; i++) {
				g = gain(v["A", w, m, i], v["B", w, m, i], m)
				arrows = arrows (g > 0 ? "↑" : g < 0 ? "↓" : "=")
				if (g > 0) wins++
			}
			printf "| %s | `%s` | %s | %s | %+.1f %% | %d/%d | %s | %.1f %% / %.1f %% | %.1f %% / %.1f %% | %s / %s |\n", w, m, a, b, 100 * (bm - am) / am, wins, n, arrows, ra, rb, sa, sb, hdelta(w, m, 1), hdelta(w, m, 2)
		}
	}
}' "$run/log"
