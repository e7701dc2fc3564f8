package main

import (
	"fmt"
	"io"
	"time"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/core"
	"consim/internal/memctrl"
	"consim/internal/mesh"
	"consim/internal/sim"
	"consim/internal/workload"
)

// timeLayers times each layer's public functions from outside, fed by
// the reference stream of the workload's own generators at its specs,
// scale and seed (the generators of a fresh core.System built from the
// workload's configuration). Each layer's calls are timed in batches,
// and ns per call is reported over the batches.

const (
	streamRefs = 1 << 20 // references drawn from the generators
	batchOps   = 512     // calls per timed batch
)

// Cache levels, in the order of the access walk.
const (
	levelL0 = iota
	levelL1
	levelLLC
	numLevels
)

var levelNames = [numLevels]string{"l0", "l1", "llc"}

// layerCosts holds every layer's per-call timing.
type layerCosts struct {
	next, pushPop                      summary
	lookupHit, lookupMiss, insertEvict [numLevels]summary
	dirGet, dirRelease, dcAccess       summary
	meshLatency                        summary
	memRead, memWriteback              summary
}

// ref is one reference of the layer stream.
type ref struct {
	addr  sim.Addr
	core  int
	vm    uint8
	write bool
}

// timeBatches calls op(i) for i in [0, n), timing each batch of
// batchOps calls, and returns ns per call of every batch.
func timeBatches(n int, op func(i int)) []float64 {
	var out []float64
	for lo := 0; lo+batchOps <= n; lo += batchOps {
		t0 := time.Now()
		for i := lo; i < lo+batchOps; i++ {
			op(i)
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/batchOps)
	}
	return out
}

// scaledBytes mirrors core.Config's capacity scaling: divide by the
// scale and round down to a power-of-two line count of at least 16.
func scaledBytes(full, scale int) int {
	lines := full / scale / sim.LineBytes
	if lines < 16 {
		lines = 16
	}
	p := 1
	for p*2 <= lines {
		p *= 2
	}
	return p * sim.LineBytes
}

// sink keeps timed results live.
var sink uint64

func timeLayers(cfg core.Config, sp *spanLog) (layerCosts, error) {
	var lc layerCosts
	stream, sys, err := refStream(cfg)
	if err != nil {
		return lc, err
	}
	eff := sys.Config()

	endSpan := sp.begin("layer workload.Next")
	lc.next, err = timeNext(cfg)
	endSpan()
	if err != nil {
		return lc, err
	}

	// Private hierarchy and LLC banks at the run's geometry: one L0 and
	// L1 per core, one bank per group. Each level sees the misses of the
	// level above, as in the access walk.
	groups := eff.Cores / eff.GroupSize
	llcBytes := scaledBytes(core.DefaultLLCBytes/eff.Cores*eff.GroupSize, eff.Scale)
	geoms := [numLevels]struct {
		n   int
		cfg cache.Config
		own func(r ref) int
	}{
		{eff.Cores, cache.Config{SizeBytes: scaledBytes(core.DefaultL0Bytes, eff.Scale), Assoc: 2}, func(r ref) int { return r.core }},
		{eff.Cores, cache.Config{SizeBytes: scaledBytes(core.DefaultL1Bytes, eff.Scale), Assoc: 4}, func(r ref) int { return r.core }},
		{groups, cache.Config{SizeBytes: llcBytes, Assoc: 16}, func(r ref) int { return r.core / eff.GroupSize }},
	}
	// levelIn[lv] is what level lv sees: the misses of the level above.
	var levelIn [numLevels + 1][]ref
	levelIn[levelL0] = stream
	chipLines := 0
	for lv := 0; lv < numLevels; lv++ {
		g := geoms[lv]
		chipLines += g.n * g.cfg.SizeBytes / sim.LineBytes
		endSpan = sp.begin("layer cache." + levelNames[lv])
		caches := make([]*cache.Cache, g.n)
		for i := range caches {
			caches[i] = cache.New(g.cfg)
		}
		levelIn[lv+1], lc.lookupHit[lv], lc.lookupMiss[lv], lc.insertEvict[lv] = timeCacheLevel(caches, g.own, levelIn[lv])
		endSpan()
	}
	// Private misses (the LLC's input) take a directory entry; LLC misses
	// visit the home's directory cache, the mesh and memory.
	llcMisses := levelIn[numLevels]

	endSpan = sp.begin("layer coherence.Directory")
	lc.dirGet, lc.dirRelease = timeDirectory(eff, levelIn[levelLLC], chipLines)
	endSpan()

	endSpan = sp.begin("layer coherence.DirCache")
	dc := coherence.NewDirCache(eff.Cores, coherence.DirCacheConfig{Entries: eff.DirCacheEntries, Assoc: 8})
	dir := coherence.NewDirectory(eff.Cores)
	warm := len(llcMisses) / 2
	for _, r := range llcMisses[:warm] {
		dc.Access(dir.Home(r.addr), r.addr)
	}
	rest := llcMisses[warm:]
	lc.dcAccess = summarize(timeBatches(len(rest), func(i int) {
		if dc.Access(dir.Home(rest[i].addr), rest[i].addr) {
			sink++
		}
	}))
	endSpan()

	endSpan = sp.begin("layer mesh.Model")
	lc.meshLatency = timeMesh(eff, dir, llcMisses)
	endSpan()

	endSpan = sp.begin("layer memctrl.Mem")
	lc.memRead, lc.memWriteback = timeMemctrl(eff, llcMisses)
	endSpan()

	endSpan = sp.begin("layer sim.EventQueue")
	lc.pushPop = timeEventQueue(eff.Cores, stream)
	endSpan()
	return lc, nil
}

// refStream draws streamRefs references from the workload's generators,
// interleaving threads round-robin, with each thread's core taken from
// the system's placement.
func refStream(cfg core.Config) ([]ref, *core.System, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	vms, asg := sys.VMs(), sys.Assignment()
	out := make([]ref, 0, streamRefs)
	for len(out) < streamRefs {
		for v, m := range vms {
			for t, c := range asg[v] {
				acc := m.Gen.Next(t)
				out = append(out, ref{addr: m.AddrOf(acc.Block), core: c, vm: uint8(v), write: acc.Write})
			}
		}
	}
	return out, sys, nil
}

// timeNext times workload.Generator.Next on a second, identical set of
// generators, cycling through threads as refStream does.
func timeNext(cfg core.Config) (summary, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return summary{}, err
	}
	type stream struct {
		g *workload.Generator
		t int
	}
	var streams []stream
	for v, m := range sys.VMs() {
		g, ok := m.Gen.(*workload.Generator)
		if !ok {
			return summary{}, fmt.Errorf("vm %d: reference source is not a generator", v)
		}
		for t := range sys.Assignment()[v] {
			streams = append(streams, stream{g, t})
		}
	}
	return summarize(timeBatches(streamRefs, func(i int) {
		s := streams[i%len(streams)]
		sink += s.g.Next(s.t).Block
	})), nil
}

// timeCacheLevel warms caches with in (lookup, insert on miss), then
// times lookups that hit, lookups that miss, and inserts that evict on
// references taken from the second half of in. It returns the misses of
// the warming pass in order: the next level's input.
func timeCacheLevel(caches []*cache.Cache, own func(ref) int, in []ref) (misses []ref, hit, miss, insert summary) {
	for _, r := range in {
		c := caches[own(r)]
		if _, ok := c.Lookup(r.addr); !ok {
			c.Insert(r.addr, cache.Shared, r.vm)
			misses = append(misses, r)
		}
	}
	var hits, absent []ref
	seen := map[[2]uint64]bool{}
	for _, r := range in[len(in)/2:] {
		if _, ok := caches[own(r)].Probe(r.addr); ok {
			hits = append(hits, r)
			continue
		}
		k := [2]uint64{uint64(own(r)), uint64(r.addr)}
		if !seen[k] {
			seen[k] = true
			absent = append(absent, r)
		}
	}
	lookup := func(list []ref) func(int) {
		return func(i int) {
			if _, ok := caches[own(list[i])].Lookup(list[i].addr); ok {
				sink++
			}
		}
	}
	hit = summarize(timeBatches(len(hits), lookup(hits)))
	miss = summarize(timeBatches(len(absent), lookup(absent)))
	// Each absent line is inserted once; after the warming pass its set
	// is full, so the insert evicts.
	insert = summarize(timeBatches(len(absent), func(i int) {
		r := absent[i]
		if _, evicted, _ := caches[own(r)].Insert(r.addr, cache.Shared, r.vm); evicted {
			sink++
		}
	}))
	return misses, hit, miss, insert
}

// timeDirectory times Directory.Get on the private-miss stream (each
// entry gains an LLC sharer, as a fetch records one) and Directory.Release of the
// oldest entries once the line has left the chip, keeping the table at
// the chip's line capacity, as the access walk does.
func timeDirectory(cfg core.Config, stream []ref, capacity int) (get, release summary) {
	d := coherence.NewDirectory(cfg.Cores)
	var live []sim.Addr
	var gets, rels []float64
	leave := func(addr sim.Addr) {
		if e, ok := d.Probe(addr); ok {
			e.L1Sharers, e.L2Sharers, e.L1Owner, e.L2Owner = 0, 0, -1, -1
		}
	}
	for lo := 0; lo+batchOps <= len(stream); lo += batchOps {
		batch := stream[lo : lo+batchOps]
		t0 := time.Now()
		for _, r := range batch {
			d.Get(r.addr).AddL2(r.core / cfg.GroupSize)
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/batchOps)
		for _, r := range batch {
			live = append(live, r.addr)
		}
		if len(live) < capacity+batchOps {
			continue
		}
		old := live[:batchOps]
		for _, a := range old {
			leave(a)
		}
		t0 = time.Now()
		for _, a := range old {
			d.Release(a)
		}
		rels = append(rels, float64(time.Since(t0).Nanoseconds())/batchOps)
		live = live[batchOps:]
	}
	// The first half warms the table; report the steady second half.
	return summarize(gets[len(gets)/2:]), summarize(rels[len(rels)/2:])
}

// timeMesh times mesh.Model.Latency for the messages of each LLC miss:
// a request from the core to the line's home and the data back.
func timeMesh(cfg core.Config, dir *coherence.Directory, misses []ref) summary {
	m := mesh.NewModel(mesh.DefaultNetConfig(cfg.Cores).Geometry, cfg.PipeStages)
	var now sim.Cycle
	return summarize(timeBatches(2*len(misses), func(i int) {
		r := misses[i/2]
		home := dir.Home(r.addr)
		now += 4
		if i%2 == 0 {
			sink += uint64(m.Latency(now, r.core, home, core.CtrlFlits))
		} else {
			sink += uint64(m.Latency(now, home, r.core, core.DataFlits))
		}
	}))
}

// timeMemctrl times memctrl reads and writebacks of the LLC-miss
// addresses at the system's controller configuration.
func timeMemctrl(cfg core.Config, misses []ref) (read, wb summary) {
	m := memctrl.New(cfg.Mem)
	var now sim.Cycle
	read = summarize(timeBatches(len(misses), func(i int) {
		now += 8
		sink += uint64(m.Read(now, misses[i].addr))
	}))
	wb = summarize(timeBatches(len(misses), func(i int) {
		now += 8
		m.Writeback(now, misses[i].addr)
	}))
	return read, wb
}

// timeEventQueue times one Pop and one Push per reference on a queue
// holding one event per core, the simulator's steady state. The delay
// to each core's next event is drawn from the stream's block numbers.
func timeEventQueue(cores int, stream []ref) summary {
	q := sim.NewEventQueue(cores)
	for c := 0; c < cores; c++ {
		q.Push(sim.Cycle(c), c)
	}
	return summarize(timeBatches(len(stream), func(i int) {
		t, c := q.Pop()
		q.Push(t+1+sim.Cycle(uint64(stream[i].addr)>>sim.LineShift&63), c)
	}))
}

// costRow is one layer's line of the cost table.
type costRow struct {
	layer        string
	opsPerRef    float64
	nsPerOp      float64
	estimatedOps bool // op count derived from protocol counts
}

func (r costRow) nsPerRef() float64 { return r.opsPerRef * r.nsPerOp }

// costTable prints one row per layer (ops per reference x ns per op),
// their sum against the measured ns per reference, and the uncovered
// residue as its own row. It returns the covered ns per reference.
func costTable(w io.Writer, rows []costRow, measuredNs float64) float64 {
	covered := 0.0
	for _, r := range rows {
		covered += r.nsPerRef()
	}
	fmt.Fprintf(w, "layer cost per reference:\n  %-40s %10s %10s %10s %8s\n", "layer", "ops/ref", "ns/op", "ns/ref", "share")
	share := func(ns float64) float64 {
		if measuredNs <= 0 {
			return 0
		}
		return 100 * ns / measuredNs
	}
	for _, r := range rows {
		name := r.layer
		if r.estimatedOps {
			name += " (est. ops)"
		}
		fmt.Fprintf(w, "  %-40s %10.4f %10.2f %10.2f %7.1f%%\n", name, r.opsPerRef, r.nsPerOp, r.nsPerRef(), share(r.nsPerRef()))
	}
	fmt.Fprintf(w, "  %-40s %10s %10s %10.2f %7.1f%%\n", "sum of layers", "", "", covered, share(covered))
	fmt.Fprintf(w, "  %-40s %10s %10s %10.2f %7.1f%%\n", "residue (uncovered)", "", "", measuredNs-covered, share(measuredNs-covered))
	fmt.Fprintf(w, "  %-40s %10s %10s %10.2f %7.1f%%\n", "measured", "", "", measuredNs, share(measuredNs))
	return covered
}
