package core

import (
	"path/filepath"
	"runtime"
	"testing"

	"consim/internal/obs"
	"consim/internal/workload"
)

// allocTestHooks builds run hooks with every steady-state-visible sink
// live: metric shards and a -timeseries recorder writing to a temp
// sidecar.
func allocTestHooks(t *testing.T) *obs.RunHooks {
	t.Helper()
	o := obs.NewObserver(nil, nil, nil)
	tsw, err := obs.OpenTimeSeries(filepath.Join(t.TempDir(), "ts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tsw.Close() })
	o.TS = tsw
	return o.Hooks()
}

// TestSteadyStateAllocBudget is the allocation regression guard for the
// per-reference access path: once the machine is warm (caches and
// directory populated, event queue at its working size), simulating more
// references must be allocation-free — the flat directory stores entries
// by value, and everything else on the path reuses preallocated state.
// The budget tolerates a handful of stragglers (a late directory-table
// growth, runtime bookkeeping) but fails loudly if a per-reference
// allocation sneaks back in.
//
// The run executes with live metrics AND a -timeseries recorder
// attached: the observability layer's publish cadence (shard slot
// writes, histogram observes, time-series column writes) is part of
// the guarded path and must stay allocation-free too.
func TestSteadyStateAllocBudget(t *testing.T) {
	specs := workload.Specs()
	cfg := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.Scale = 16
	cfg.GroupSize = 4
	cfg.WarmupRefs = 40_000
	cfg.MeasureRefs = 40_000
	cfg.Obs = allocTestHooks(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.setupTS()

	// Mirror Run()'s setup, then measure a second chunk after the first
	// has warmed every structure.
	for c := range sys.cores {
		if sys.cores[c].active {
			sys.q.Push(0, c)
			sys.pending[c] = true
		}
	}
	sys.runUntil(cfg.WarmupRefs)

	const measuredRefs = 40_000 * 16 // per-core target x cores
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.runUntil(cfg.WarmupRefs + cfg.MeasureRefs)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perRef := float64(allocs) / float64(measuredRefs)
	t.Logf("steady state: %d allocs over %d refs (%.6f allocs/ref, %d bytes)",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc)
	if perRef > 0.001 {
		t.Fatalf("access path allocates: %.6f allocs/ref (budget 0.001)", perRef)
	}
}

// TestPdesShardedAllocBudget holds the pdes engine with bank-sharded
// replay to the same steady-state budget: the merged
// op log, per-stream rank lists, deferred-effect logs and merge cursors
// are all preallocated and recycled across windows, and the deferred
// writeback merge keeps its cursor array on the stack — replaying in
// parallel must not buy back the allocations the serial replay avoided.
func TestPdesShardedAllocBudget(t *testing.T) {
	specs := workload.Specs()
	cfg := DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.Scale = 16
	cfg.GroupSize = 4
	cfg.WarmupRefs = 40_000
	cfg.MeasureRefs = 40_000
	cfg.Pdes = 4
	cfg.PdesReplayWorkers = 4
	cfg.Obs = allocTestHooks(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.setupTS()

	// Mirror Run()'s pdes setup: the engine seeds its own per-domain
	// calendars; only start/stop the worker pool around the run.
	sys.pdes.start()
	defer sys.pdes.stop()
	sys.runUntil(cfg.WarmupRefs)

	const measuredRefs = 40_000 * 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.runUntil(cfg.WarmupRefs + cfg.MeasureRefs)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perRef := float64(allocs) / float64(measuredRefs)
	t.Logf("pdes sharded steady state: %d allocs over %d refs (%.6f allocs/ref, %d bytes), stats %+v",
		allocs, measuredRefs, perRef, after.TotalAlloc-before.TotalAlloc, sys.pdes.stats)
	if perRef > 0.001 {
		t.Fatalf("sharded replay path allocates: %.6f allocs/ref (budget 0.001)", perRef)
	}
}
