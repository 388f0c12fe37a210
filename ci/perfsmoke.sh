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

# Group-attribution overhead gate: EnableGroupStats promises to cost <3%
# events/s even on its worst case — a pure multicast workload where every
# delivered packet books into a group cell. gsov measures it with the same
# paired-median harness as traceov and -maxover fails the process
# above the budget. (Disabled cost is one nil check per hook and is covered
# by the BenchmarkScaleEvents floor above.)
go run ./cmd/cepheus-bench -only gsov -maxover 0.03
