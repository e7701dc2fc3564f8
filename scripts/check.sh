#!/bin/sh
# Tier-1 gate: vet, build, race-enabled tests, and the allocation-budget
# guards. Run from the repo root before sending a change.
#
#   scripts/check.sh           # short mode (~10 minutes on one core)
#   FULL=1 scripts/check.sh    # full test suite (tens of minutes)
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
tier1_log=$(mktemp /tmp/consim_tier1.XXXXXX.log)
if [ "${FULL:-}" = "1" ]; then
	go test -v -race ./... >"$tier1_log" || { cat "$tier1_log"; exit 1; }
else
	go test -v -race -short ./... >"$tier1_log" || { cat "$tier1_log"; exit 1; }
fi
grep -E '^(ok|FAIL)[[:space:]]' "$tier1_log" || true
echo "== slowest tests =="
# Per-test wall time keeps the tier-1 cost a tracked number.
scripts/slowest_tests.sh 20 <"$tier1_log"
rm -f "$tier1_log"

echo "== allocation budgets =="
# Steady-state simulation loop must not allocate (perf regression guard).
# TestSteadyStateAllocBudget runs with live metrics AND a -timeseries
# recorder attached, so the observability publish cadence is inside the
# guarded path; the pdes variant holds the sharded barrier replay to the
# same budget.
go test -run 'TestSteadyStateAllocBudget' ./internal/core
go test -run 'TestPdesShardedAllocBudget' ./internal/core
go test -run 'TestDirectorySteadyStateAllocs' ./internal/coherence

echo "== sampled engine smoke =="
# Interval sampling must engage (the provenance line appears), stay
# deterministic per seed, and leave detailed runs untouched (the golden
# fixtures in the tier-1 run pin the -sample-off path bit-for-bit).
go test -run 'TestSampledRunRepeatable|TestFastForwardNoTimingLeak' ./internal/core
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-sample 1000 -sample-ci 0.2 | grep -q "sampled:" \
	|| { echo "check.sh: sampled run produced no provenance line" >&2; exit 1; }

echo "== warm-walk smoke =="
# The specialized warming walk must stay bit-identical to the retained
# generic oracle (cache tags/LRU, directory, dircache, RNG cursor), and
# an observed -sample -timeseries run must surface the fast-forward
# phase split and cost ratio in its obs report.
go test -short -run 'TestWarmWalkDifferential|TestWarmEntryPointsMatchGeneric' ./internal/core
warm_dir=$(mktemp -d /tmp/consim_warm.XXXXXX)
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-sample 1000 -sample-ci 0.2 \
	-timeseries "$warm_dir/ts.jsonl" -manifest "$warm_dir/m.jsonl" >/dev/null
warm_report=$(go run ./cmd/obs report "$warm_dir/m.jsonl")
echo "$warm_report" | grep -q "fast-forward" \
	|| { echo "check.sh: obs report missing the fast-forward phase: $warm_report" >&2; exit 1; }
echo "$warm_report" | grep -q "ff cost ratio" \
	|| { echo "check.sh: obs report missing the ff cost ratio: $warm_report" >&2; exit 1; }
rm -rf "$warm_dir"

echo "== parallel (pdes) engine smoke =="
# The split-transaction parallel engine must stay within the equivalence
# bound of the sequential engine (single seed here; CI's nightly matrix
# covers more), stay deterministic per seed, and leave -pdes-off runs
# untouched (the golden fixtures pin the sequential path bit-for-bit).
go test -short -run 'TestPdesValidation|TestPdesDeterministic|TestPdesEquivalence' ./internal/core
go test -short -run 'TestParallelEquivalence|TestRunnerPdesOption' ./internal/harness
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-pdes 4 | grep -q "parallel:" \
	|| { echo "check.sh: pdes run produced no provenance line" >&2; exit 1; }

echo "== sharded replay smoke =="
# The bank-sharded barrier replay must stay bit-identical to the serial
# replay, the merged memctrl order exact, and the CLI knobs must engage
# (the provenance line says so).
go test -short -run 'TestShardedReplayBitIdentical|TestPdesReplayValidation' ./internal/core
go test -run 'TestShardedReplayMemctrlMerge' ./internal/memctrl
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-pdes 4 -pdes-replay-workers 4 | grep -q "sharded replay x4" \
	|| { echo "check.sh: sharded replay produced no provenance line" >&2; exit 1; }

echo "== phase profiler smoke =="
# A -pdes -timeseries run must record per-window telemetry rows and a
# phase profile whose obs report prints the in-window/replay
# decomposition; obs diff of two identical runs must exit clean (the
# wide threshold tolerates wall-clock noise — the wiring is under test,
# not the machine).
obs_dir=$(mktemp -d /tmp/consim_obs.XXXXXX)
for i in 1 2; do
	go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
		-pdes 4 -timeseries "$obs_dir/ts.jsonl" -manifest "$obs_dir/m.jsonl" >/dev/null
done
test -s "$obs_dir/ts.jsonl" || { echo "check.sh: empty time-series sidecar" >&2; exit 1; }
obs_report=$(go run ./cmd/obs report "$obs_dir/m.jsonl")
echo "$obs_report" | grep -q "replay" \
	|| { echo "check.sh: obs report missing the replay term: $obs_report" >&2; exit 1; }
echo "$obs_report" | grep -q "in-window" \
	|| { echo "check.sh: obs report missing the in-window term: $obs_report" >&2; exit 1; }
echo "$obs_report" | grep -q "time series" \
	|| { echo "check.sh: obs report missing the time-series summary: $obs_report" >&2; exit 1; }
go run ./cmd/obs diff -threshold 0.5 "$obs_dir/m.jsonl" >/dev/null \
	|| { echo "check.sh: obs diff flagged two identical runs" >&2; exit 1; }
rm -rf "$obs_dir"

echo "== bench regression gate =="
# Throughput-only bench run compared against the committed baseline:
# fails on a >10% refs/sec regression or any allocs/ref growth.
go run ./cmd/bench -figures "" -iters 2 -out - -baseline BENCH_consim.json >/dev/null

echo "== observability smoke =="
# A tiny observed run must produce a non-empty Chrome trace and a
# manifest line alongside a clean exit.
obs_trace=$(mktemp /tmp/consim_trace.XXXXXX.json)
obs_manifest=$(mktemp /tmp/consim_manifest.XXXXXX.jsonl)
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 4000 \
	-progress -tracefile "$obs_trace" -manifest "$obs_manifest" >/dev/null
test -s "$obs_trace" || { echo "check.sh: empty trace file" >&2; exit 1; }
test -s "$obs_manifest" || { echo "check.sh: empty manifest" >&2; exit 1; }
rm -f "$obs_trace" "$obs_manifest"

echo "check.sh: OK"
