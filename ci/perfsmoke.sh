#!/bin/sh
# Perf smoke gate: BenchmarkScaleEvents must stay above the checked-in
# floor (ci/perf-floor.txt) minus tolerance. The benchmark reports an
# events/s metric; best-of-three absorbs run-to-run scheduler noise, the
# tolerance absorbs runner-to-runner hardware variance.
set -eu
cd "$(dirname "$0")/.."

floor=$(awk -F= '/^floor_events_per_sec=/{print $2}' ci/perf-floor.txt)
tol=$(awk -F= '/^tolerance=/{print $2}' ci/perf-floor.txt)

best=0
for i in 1 2 3; do
	v=$(go test -run NONE -bench 'BenchmarkScaleEvents$' -benchtime 2s . |
		awk '$NF=="events/s"{print $(NF-1)}')
	echo "run $i: $v events/s"
	best=$(awk -v a="$best" -v b="$v" 'BEGIN{print (a>b)?a:b}')
done

awk -v best="$best" -v floor="$floor" -v tol="$tol" 'BEGIN {
	min = floor * (1 - tol)
	printf "best %.0f events/s, gate %.0f (floor %.0f - %.0f%% tolerance)\n",
		best, min, floor, tol * 100
	if (best < min) {
		print "perf smoke FAIL: BenchmarkScaleEvents below floor" > "/dev/stderr"
		exit 1
	}
	print "perf smoke OK"
}'

# Parallel-speedup gate: on a multi-core runner, the pdes worker sweep's
# workers=4 row must beat workers=1 by the checked-in ratio. Skipped below
# 4 CPUs — there the executor intentionally degrades to the inline path and
# any residual speedup is heap-partitioning noise, not parallelism.
ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
ratio=$(awk -F= '/^speedup_w4_over_w1=/{print $2}' ci/perf-floor.txt)
if [ "$ncpu" -lt 4 ]; then
	echo "parallel speedup gate skipped: $ncpu CPUs (need 4)"
else
	tmp=$(mktemp)
	go run ./cmd/cepheus-bench -only pdes -json "$tmp" >/dev/null
	set -- $(awk -F'[:,]' '
		/"case"/ { c = $2 }
		/"events_per_sec"/ {
			if (c ~ /workers=1"/) a = $2
			else if (c ~ /workers=4"/) b = $2
		}
		END { print a, b }' "$tmp")
	rm -f "$tmp"
	awk -v w1="$1" -v w4="$2" -v ratio="$ratio" 'BEGIN {
		if (w1 <= 0 || w4 <= 0) {
			print "parallel speedup FAIL: missing pdes sweep rows" > "/dev/stderr"
			exit 1
		}
		s = w4 / w1
		printf "pdes workers=4 %.2fM events/s vs workers=1 %.2fM: %.2fx (gate %.2fx)\n",
			w4 / 1e6, w1 / 1e6, s, ratio
		if (s < ratio) {
			print "parallel speedup FAIL: workers=4 below checked-in ratio" > "/dev/stderr"
			exit 1
		}
		print "parallel speedup OK"
	}'
fi

# Profiler-overhead gate: executor introspection (Options.Profile) promises
# to cost <3% events/s on the partitioned coordinator. profov measures it
# (median-of-7 interleaved off/on runs, warmed up) and -maxover fails the
# process above the budget. Runs at any CPU count: on a 1-CPU box the
# coordinator degrades to the inline path, where the merge/exec phase stamps
# — the profiler's whole per-window cost — are still taken.
go run ./cmd/cepheus-bench -only profov -maxover 0.03

# Group-attribution overhead gate: EnableGroupStats promises to cost <3%
# events/s even on its worst case — a pure multicast workload where every
# delivered packet books into a group cell. gsov measures it with the same
# paired-median harness as traceov/profov and -maxover fails the process
# above the budget. (Disabled cost is one nil check per hook and is covered
# by the BenchmarkScaleEvents floor above.)
go run ./cmd/cepheus-bench -only gsov -maxover 0.03
