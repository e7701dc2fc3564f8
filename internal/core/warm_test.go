package core

import (
	"fmt"
	"testing"

	"consim/internal/cache"
	"consim/internal/sim"
)

// warmStateDigest folds every piece of state fast-forward is allowed to
// move — private caches, LLC banks, the directory, the directory caches,
// the warming scratch counters, back-invalidation accounting and the
// workload cursors' observable effect (via vm.Stats after later detailed
// work) — into one value. The warm walk must leave it bit-identical to
// the retained generic ffTiming walk.
func warmStateDigest(s *System) uint64 {
	h := uint64(cache.DigestSeed)
	for _, c := range s.l0 {
		h = c.StateDigest(h)
	}
	for _, c := range s.l1 {
		h = c.StateDigest(h)
	}
	for _, b := range s.banks {
		h = b.StateDigest(h)
	}
	h = s.dir.StateDigest(h)
	h = s.dirCache.StateDigest(h)
	h = cache.MixDigest(h, s.backInvals)
	for v := range s.ffStats {
		st := &s.ffStats[v]
		for _, c := range []uint64{
			st.Refs, st.PrivMisses, st.LLCMisses, st.C2CClean, st.C2CDirty,
			st.MemReads, st.Invalidations, st.Upgrades, uint64(st.MissLatSum),
		} {
			h = cache.MixDigest(h, c)
		}
	}
	return h
}

// warmDiffConfigs enumerates the configurations the differential test
// covers: three seeds plus a QoS-partitioned variant (exercising the
// partition-aware victim choice in the fused bank scan).
func warmDiffConfigs() map[string]Config {
	cfgs := make(map[string]Config)
	for _, seed := range []uint64{1, 2, 3} {
		cfg := sampledCfg()
		cfg.Seed = seed
		cfgs[fmt.Sprintf("seed%d", seed)] = cfg
	}
	qos := sampledCfg()
	qos.QoSPartition = true
	cfgs["qos-partitioned"] = qos
	return cfgs
}

// TestWarmWalkDifferential pins the warm walk's bit-identity contract:
// after warm-up, interleaved fast-forwards and detailed windows, the
// full functional-plane digest — cache tags, LRU stamps and clocks,
// coherence states, VM tags, access counters, directory table layout and
// entries, dircache contents and hit/miss accounting, warming scratch
// counters, back-invalidations — matches the retained ffTiming walk
// exactly, across seeds and QoS partitioning. The
// detailed window between the fast-forwards exercises the ring-cursor
// re-sync (the detailed loop consumes through the generator's Next path
// in between).
func TestWarmWalkDifferential(t *testing.T) {
	for name, cfg := range warmDiffConfigs() {
		t.Run(name, func(t *testing.T) {
			warm := newWarmSystem(t, cfg)
			oracle := newWarmSystem(t, cfg)
			oracle.ffOracle = true

			if h1, h2 := warmStateDigest(warm), warmStateDigest(oracle); h1 != h2 {
				t.Fatalf("post-warmup digests differ before any fast-forward: %#x vs %#x", h1, h2)
			}
			drive := func(s *System) {
				s.fastForward(7_000)
				s.runUntil(cfg.WarmupRefs + 2_000)
				s.fastForward(5_000)
			}
			drive(warm)
			drive(oracle)

			if h1, h2 := warmStateDigest(warm), warmStateDigest(oracle); h1 != h2 {
				t.Errorf("warm walk diverged from ffTiming oracle: %#x vs %#x", h1, h2)
			}
			// The detailed window between the fast-forwards must agree too:
			// any warming divergence surfaces as different measurement
			// counters in the following window.
			for v := range warm.vms {
				if warm.vms[v].Stats != oracle.vms[v].Stats {
					t.Errorf("vm %d measurement stats diverged:\nwarm   %+v\noracle %+v",
						v, warm.vms[v].Stats, oracle.vms[v].Stats)
				}
			}
		})
	}
}

// TestWarmWalkFullRunEquivalence runs the complete sampled engine end to
// end with the warm walk and with the ffTiming oracle and requires
// byte-identical results: same windows, same convergence trajectory,
// same per-VM metrics. A weaker contract than the state digest, but it
// covers the exact production call path through Run.
func TestWarmWalkFullRunEquivalence(t *testing.T) {
	cfg := sampledCfg()
	run := func(oracle bool) Result {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.ffOracle = oracle
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm, oracle := resultDigest(t, run(false)), resultDigest(t, run(true))
	if warm != oracle {
		t.Errorf("sampled Run with warm walk diverged from ffTiming oracle:\nwarm   %s\noracle %s",
			warm, oracle)
	}
}

// TestWarmEntryPointsMatchGeneric pins the fused cache entry points
// against the Lookup/Insert pairs they replace on a randomized operation
// stream over two identically-configured caches (with and without a
// partition quota).
func TestWarmEntryPointsMatchGeneric(t *testing.T) {
	for _, quota := range []bool{false, true} {
		ref := cache.New(cache.Config{SizeBytes: 1 << 14, Assoc: 4})
		fused := cache.New(cache.Config{SizeBytes: 1 << 14, Assoc: 4})
		if quota {
			ref.SetPartition([]int{1, 3})
			fused.SetPartition([]int{1, 3})
		}
		rng := uint64(12345)
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 33
		}
		for i := 0; i < 200_000; i++ {
			addr := simAddr(next() % 4096)
			vm := uint8(next() % 2)
			refHit := false
			if _, ok := ref.Lookup(addr); ok {
				refHit = true
			} else {
				ref.Insert(addr, cache.Shared, vm)
			}
			fusedHit := fused.LookupOrInsert(addr, cache.Shared, vm)
			if refHit != fusedHit {
				t.Fatalf("quota=%v op %d: hit disagreement at %#x: ref %v fused %v", quota, i, addr, refHit, fusedHit)
			}
		}
		if h1, h2 := ref.StateDigest(cache.DigestSeed), fused.StateDigest(cache.DigestSeed); h1 != h2 {
			t.Fatalf("quota=%v: fused entry points diverged from Lookup/Insert: %#x vs %#x", quota, h1, h2)
		}
	}
}

// BenchmarkWarmWalk measures fast-forward throughput (references per
// second) for the retained generic ffTiming walk ("generic") and the
// specialized warming walk ("warm") on the standard sampled test
// machine. The ratio is the tentpole's payoff; the absolute numbers
// anchor the ff_cost_ratio the sample sweep records.
func BenchmarkWarmWalk(b *testing.B) {
	for _, mode := range []struct {
		name   string
		oracle bool
	}{{"generic", true}, {"warm", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := sampledCfg()
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for c := range sys.cores {
				if sys.cores[c].active {
					sys.q.Push(0, c)
					sys.pending[c] = true
				}
			}
			sys.runUntil(cfg.WarmupRefs)
			sys.ffOracle = mode.oracle
			const perCore = 10_000
			sys.fastForward(perCore) // pull one-time lazy setup out of the loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.fastForward(perCore)
			}
			b.StopTimer()
			refs := float64(b.N) * perCore * float64(sys.activeCores)
			b.ReportMetric(refs/b.Elapsed().Seconds(), "refs/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refs, "ns/ref")
		})
	}
}

// simAddr converts a block index into a line-aligned address.
func simAddr(block uint64) sim.Addr {
	return sim.Addr(block << sim.LineShift)
}
