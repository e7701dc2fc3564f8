package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"consim/internal/core"
)

// summary reports one timing: its extremes, its median, the highest
// tail percentile that still has at least ten samples beyond it, and
// the sample count. Pct is zero when there are too few samples for any
// tail percentile.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Pct    float64 `json:"pct,omitempty"`
	PctVal float64 `json:"pct_value,omitempty"`
}

// tailPercentiles are tried from the highest down.
var tailPercentiles = []float64{99.9, 99, 90}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Median, s.Max = sorted[0], median(sorted), sorted[len(sorted)-1]
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // tolerate rounding in p/100
		if len(sorted)-rank >= minTail {
			s.Pct, s.PctVal = p, sorted[rank-1]
			break
		}
	}
	return s
}

// median of an already sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

func (s summary) String() string {
	if s.Pct == 0 {
		return fmt.Sprintf("min=%.6g median=%.6g max=%.6g n=%d (too few samples for a tail percentile)", s.Min, s.Median, s.Max, s.N)
	}
	return fmt.Sprintf("min=%.6g median=%.6g p%g=%.6g max=%.6g n=%d", s.Min, s.Median, s.Pct, s.PctVal, s.Max, s.N)
}

// tally counts attempted and failed operations (one simulation, or one
// figure suite, is one operation) and keeps the first reasons given.
type tally struct {
	attempted, failed int
	reasons           []string
}

const maxReasons = 8

// record counts one attempted operation, failed when errs is non-empty.
func (t *tally) record(errs []error) {
	t.attempted++
	if len(errs) == 0 {
		return
	}
	t.failed++
	for _, e := range errs {
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, e.Error())
		}
	}
}

func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digestCheck holds the digest of the first repetition of a seed; every
// later repetition must reproduce it exactly.
type digestCheck struct {
	first    uint64
	set      bool
	mismatch bool // some repetition differed
}

func (d *digestCheck) check(got uint64) error {
	if !d.set {
		d.first, d.set = got, true
		return nil
	}
	if got != d.first {
		d.mismatch = true
		return fmt.Errorf("digest mismatch: %016x, first repetition gave %016x", got, d.first)
	}
	return nil
}

// writeU64 folds v into a digest.
func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// digestResults digests every simulated statistic of the given results,
// in order. Host-side provenance (wall times, phase profile) is left
// out, so the digest depends only on the configuration and seed.
func digestResults(results ...core.Result) uint64 {
	h := fnv.New64a()
	u := func(x uint64) { writeU64(h, x) }
	f := func(x float64) { u(math.Float64bits(x)) }
	for _, r := range results {
		u(uint64(r.Cycles))
		for _, v := range r.VMs {
			s := v.Stats
			for _, x := range []uint64{s.Refs, s.PrivMisses, s.LLCMisses, s.C2CClean, s.C2CDirty,
				s.MemReads, s.Invalidations, s.Upgrades, uint64(s.MissLatSum), uint64(s.NetCycles),
				v.TouchedBlocks} {
				u(x)
			}
			for _, x := range s.RegionMisses {
				u(x)
			}
			f(v.Transactions)
			f(v.CyclesPerTx)
		}
		f(r.NetAvgWait)
		f(r.NetAvgHops)
		f(r.MemAvgWait)
		f(r.DirCacheHitRate)
		u(uint64(r.Snapshot.ResidentLines))
		u(uint64(r.Snapshot.ReplicatedLines))
		u(uint64(r.Sample.Windows))
		u(r.Sample.DetailedRefs)
		u(r.Sample.SkippedRefs)
		f(r.Sample.AchievedRelCI)
		u(r.Pdes.Windows)
		u(r.Pdes.Ops)
	}
	return h.Sum64()
}

// conservation checks the count identities every run must satisfy:
// per VM, LLC misses <= private misses <= references, and cache-to-cache
// transfers <= private misses.
func conservation(label string, r core.Result) []error {
	var errs []error
	for _, v := range r.VMs {
		s := v.Stats
		if s.LLCMisses > s.PrivMisses || s.PrivMisses > s.Refs {
			errs = append(errs, fmt.Errorf("%s vm%d: llc misses %d, private misses %d, refs %d out of order",
				label, v.VM, s.LLCMisses, s.PrivMisses, s.Refs))
		}
		if s.C2C() > s.PrivMisses {
			errs = append(errs, fmt.Errorf("%s vm%d: %d c2c transfers exceed %d private misses",
				label, v.VM, s.C2C(), s.PrivMisses))
		}
		if s.Refs == 0 {
			errs = append(errs, fmt.Errorf("%s vm%d: no references measured", label, v.VM))
		}
	}
	return errs
}

// relErr returns |got-want|/|want|; an exact match of a zero reference
// is 0 and any deviation from zero is 1.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// maxRelErr is the worst per-VM deviation of got from the sequential
// reference in LLC miss rate or cycles per transaction.
func maxRelErr(got, ref core.Result) float64 {
	worst := 0.0
	for v := range got.VMs {
		if v >= len(ref.VMs) {
			return 1
		}
		worst = math.Max(worst, relErr(got.VMs[v].MissRate(), ref.VMs[v].MissRate()))
		worst = math.Max(worst, relErr(got.VMs[v].CyclesPerTx, ref.VMs[v].CyclesPerTx))
	}
	return worst
}

// measuredRefs sums the references measured across a result's VMs.
func measuredRefs(r core.Result) uint64 {
	var n uint64
	for _, v := range r.VMs {
		n += v.Stats.Refs
	}
	return n
}
