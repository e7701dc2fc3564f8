package workload

import (
	"fmt"

	"consim/internal/sim"
)

// Access is one memory reference emitted by a generator. Block is an
// index into the workload's footprint (the VM layer maps it into the
// machine's physical address space).
type Access struct {
	Block uint64
	Write bool
}

// Region identifies which part of the footprint an access touched; the
// system model uses it only for diagnostics.
type Region uint8

// The four footprint regions.
const (
	RegionPrivate Region = iota
	RegionShared
	RegionMigratory
	RegionScan
)

type layout struct {
	privPerThread uint64
	sharedBase    uint64
	sharedLen     uint64
	migBase       uint64
	migLen        uint64
	scanBase      uint64
	scanLen       uint64
	total         uint64
}

func layoutFor(s Spec, threads int) layout {
	var l layout
	priv := uint64(float64(s.Blocks) * s.PrivFrac)
	l.privPerThread = priv / uint64(threads)
	if l.privPerThread == 0 {
		l.privPerThread = 1
	}
	priv = l.privPerThread * uint64(threads)
	l.sharedBase = priv
	l.sharedLen = max64(uint64(float64(s.Blocks)*s.SharedFrac), 1)
	l.migBase = l.sharedBase + l.sharedLen
	l.migLen = max64(uint64(float64(s.Blocks)*s.MigFrac), 1)
	l.scanBase = l.migBase + l.migLen
	l.scanLen = max64(uint64(float64(s.Blocks)*s.ScanFrac), 1)
	l.total = l.scanBase + l.scanLen
	return l
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// migRun tracks one in-progress migratory read-modify-write episode.
type migRun struct {
	block     uint64
	remaining int
}

// genBatch is the per-thread ring size: Next refills a thread's ring in
// one tight loop every genBatch references, amortizing per-call overhead
// (RNG/layout/mix loads, migratory-episode state) across the batch.
const genBatch = 256

// Generator produces the reference streams for one workload instance's
// threads. It is deterministic given its seed; each thread has an
// independent random stream so per-thread interleaving does not perturb
// the workload. References are pre-sampled genBatch at a time into a
// per-thread ring; only the shared cursors (the collaborative scan and
// the shared-region cold sweep) observe cross-thread order, and they
// advance at batch-generation time rather than per consumed reference.
type Generator struct {
	spec    Spec
	threads int
	lay     layout

	rngs       []sim.RNG // by value: one allocation, no pointer hops in fill
	zipfPriv   *sim.Zipf
	zipfShared *sim.Zipf

	mig        []migRun
	privSweep  []uint64 // per-thread sweep position (monotonic)
	sharedCold uint64   // global cold-sweep position (monotonic)
	scanCount  uint64   // global scan reference counter

	genRefs []uint64 // per-thread generated counts (drive phase position)

	// Detached-cursor mode (DetachCursors): per-thread replicas of the
	// two shared cursors above, letting threads be sampled concurrently
	// from different scheduler domains without synchronization.
	detached bool
	detScan  []uint64
	detCold  []uint64

	ring    [][]Access // per-thread pre-sampled references
	ringPos []int      // next unconsumed ring index; len(ring[t]) when drained

	// Per-thread cached phase state (recomputed at phase boundaries).
	phaseIdx []int
	mix      []phaseMix
}

// NewGenerator builds the generator for spec with the given thread count
// and seed. It panics on an invalid spec (specs are produced by this
// module).
func NewGenerator(spec Spec, threads int, seed uint64) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if threads <= 0 {
		panic(fmt.Sprintf("workload: non-positive thread count %d", threads))
	}
	g := &Generator{
		spec:      spec,
		threads:   threads,
		lay:       layoutFor(spec, threads),
		rngs:      make([]sim.RNG, threads),
		mig:       make([]migRun, threads),
		privSweep: make([]uint64, threads),
		genRefs:   make([]uint64, threads),
		ring:      make([][]Access, threads),
		ringPos:   make([]int, threads),
		phaseIdx:  make([]int, threads),
		mix:       make([]phaseMix, threads),
	}
	backing := make([]Access, threads*genBatch)
	for t := 0; t < threads; t++ {
		g.ring[t] = backing[t*genBatch : (t+1)*genBatch : (t+1)*genBatch]
		g.ringPos[t] = genBatch // empty: first Next triggers a fill
	}
	for t := 0; t < threads; t++ {
		g.phaseIdx[t] = spec.phaseAt(spec.PhaseOffset)
		g.mix[t] = spec.mixFor(g.phaseIdx[t])
	}
	root := sim.NewRNG(seed ^ uint64(spec.Class)<<32)
	for i := range g.rngs {
		// Same stream derivation as root.Split, without the allocation.
		g.rngs[i].Seed(root.Uint64())
	}
	hot := uint64(spec.HotBlocksPriv)
	if hot > g.lay.privPerThread {
		hot = g.lay.privPerThread
	}
	g.zipfPriv = sim.NewZipf(hot, spec.ThetaPriv)
	sharedHot := uint64(spec.SharedHotBlocks)
	if sharedHot > g.lay.sharedLen {
		sharedHot = g.lay.sharedLen
	}
	g.zipfShared = sim.NewZipf(sharedHot, spec.ThetaShared)
	return g
}

// Spec returns the generated workload's parameters.
func (g *Generator) Spec() Spec { return g.spec }

// Threads returns the number of reference streams.
func (g *Generator) Threads() int { return g.threads }

// FootprintBlocks returns the size of the workload's block address space.
func (g *Generator) FootprintBlocks() uint64 { return g.lay.total }

// Next produces thread t's next reference. The body stays small enough
// to inline into the simulator's event loop; the ring refill is the cold
// path, and consumed-reference counts fall out of the ring position (see
// Refs) so the fast path touches nothing but the ring.
func (g *Generator) Next(t int) Access {
	i := g.ringPos[t]
	if i == genBatch {
		return g.refill(t)
	}
	g.ringPos[t] = i + 1
	return g.ring[t][i]
}

// refill drains the cold path of Next: re-sample the thread's ring and
// hand out its first reference.
func (g *Generator) refill(t int) Access {
	g.fill(t)
	g.ringPos[t] = 1
	return g.ring[t][0]
}

// WarmRing exposes thread t's reference ring and current cursor to the
// sampling engine's warming loop, which drains the ring directly — one
// hoisted slice index per reference instead of Next's cursor load and
// store. The ring's backing array is allocated once per generator, so
// the slice stays valid across refills. A caller that consumes through
// the ring must mirror every consumption back with WarmSetPos before
// anything else uses the Next path, and must refill a drained ring
// (cursor == len(ring)) through WarmRefill so the draw sequence and the
// shared sampling cursors advance exactly as Next would advance them.
func (g *Generator) WarmRing(t int) ([]Access, int) {
	return g.ring[t], g.ringPos[t]
}

// WarmSetPos stores the ring cursor back after a warming drain.
func (g *Generator) WarmSetPos(t, pos int) { g.ringPos[t] = pos }

// WarmRefill re-samples thread t's drained ring and returns its first
// reference, leaving the cursor at 1 — exactly Next's refill path,
// exported for the warming loop's direct-drain consumption.
func (g *Generator) WarmRefill(t int) Access { return g.refill(t) }

// threadGenState bundles every per-thread mutable the sampler walks; a
// batch loads it into locals, samples, and stores it back.
type threadGenState struct {
	rng       sim.RNG
	mig       migRun
	privSweep uint64
	genRefs   uint64
	phaseIdx  int
	mix       phaseMix
}

// loadThread / storeThread move thread t's sampler state between the
// Generator arrays and a batch-local copy.
func (g *Generator) loadThread(t int, st *threadGenState) {
	st.rng = g.rngs[t]
	st.mig = g.mig[t]
	st.privSweep = g.privSweep[t]
	st.genRefs = g.genRefs[t]
	st.phaseIdx = g.phaseIdx[t]
	st.mix = g.mix[t]
}

func (g *Generator) storeThread(t int, st *threadGenState) {
	g.rngs[t] = st.rng
	g.mig[t] = st.mig
	g.privSweep[t] = st.privSweep
	g.genRefs[t] = st.genRefs
	g.phaseIdx[t] = st.phaseIdx
	g.mix[t] = st.mix
}

// cursors abstracts the two generator-shared sampling cursors (the
// collaborative scan and the shared-region cold sweep) out of the batch
// loop. liveCursors advances them in place; detachedCursors advances one
// thread's private replica (DetachCursors). The type parameter keeps both
// instantiations fully inlined.
type cursors interface {
	scan() Access
	cold() Access
	steadyShared() bool
}

// liveCursors mutates the Generator's shared cursors directly.
type liveCursors struct{ g *Generator }

func (c liveCursors) scan() Access {
	g := c.g
	g.scanCount++
	pos := (g.scanCount / uint64(g.spec.ScanReadsPerBlock)) % g.lay.scanLen
	return Access{Block: g.lay.scanBase + pos}
}

func (c liveCursors) cold() Access {
	g := c.g
	pos := g.sharedCold % g.lay.sharedLen
	g.sharedCold++
	return Access{Block: g.lay.sharedBase + pos}
}

func (c liveCursors) steadyShared() bool { return c.g.sharedCold >= c.g.lay.sharedLen }

// DetachCursors switches the generator's shared sampling cursors to
// per-thread replicas, so threads can be sampled concurrently from
// different scheduler domains without synchronization (the parallel
// discrete-event engine's requirement). The replicas preserve the two
// properties the shared cursors encode: the collaborative scan advances
// at the collective pace — every thread's scan position moves
// threads-per-ScanReadsPerBlock per own reference, keeping the
// near-lockstep sweep whose trailing reads hit the leader's lines — and
// the cold sweep stripes the shared region across threads so one lap of
// the region takes the same aggregate reference count. Streams
// legitimately differ from the attached mode (the engine that uses this
// is equivalence-gated, not bit-identical), but each thread's stream is
// independent of cross-thread interleaving, hence deterministic under
// any domain partition. Must be called before any references are drawn.
func (g *Generator) DetachCursors() {
	if g.detached {
		return
	}
	g.detached = true
	g.detScan = make([]uint64, g.threads)
	g.detCold = make([]uint64, g.threads)
}

// detachedCursors is one thread's private replica of the shared cursors
// (see DetachCursors for the pacing argument).
type detachedCursors struct {
	g *Generator
	t int
}

func (c detachedCursors) scan() Access {
	g := c.g
	n := g.detScan[c.t]
	g.detScan[c.t]++
	// Preserve both attached-mode properties: ScanReadsPerBlock
	// consecutive reads of one block (the intra-thread reuse the private
	// levels absorb), and the collective sweep pace — threads stripe the
	// region, so together they advance one block per ScanReadsPerBlock
	// aggregate draws, near-lockstep.
	pos := (uint64(c.t) + n/uint64(g.spec.ScanReadsPerBlock)*uint64(g.threads)) % g.lay.scanLen
	return Access{Block: g.lay.scanBase + pos}
}

func (c detachedCursors) cold() Access {
	g := c.g
	pos := (g.detCold[c.t]*uint64(g.threads) + uint64(c.t)) % g.lay.sharedLen
	g.detCold[c.t]++
	return Access{Block: g.lay.sharedBase + pos}
}

func (c detachedCursors) steadyShared() bool {
	g := c.g
	return g.detCold[c.t]*uint64(g.threads) >= g.lay.sharedLen
}

// fill pre-samples the next genBatch references for thread t. Hot state
// (RNG, layout, mix, migratory episode, sweep cursor) lives in locals for
// the duration of the batch; only the shared cursors touch the Generator.
func (g *Generator) fill(t int) {
	var st threadGenState
	g.loadThread(t, &st)
	if g.detached {
		fillCore(g, t, &st, g.ring[t][:genBatch:genBatch], detachedCursors{g, t})
	} else {
		fillCore(g, t, &st, g.ring[t][:genBatch:genBatch], liveCursors{g})
	}
	g.storeThread(t, &st)
}

// fillCore samples one batch of thread t's stream into ring, advancing st
// and drawing shared-cursor positions through cur.
func fillCore[C cursors](g *Generator, t int, st *threadGenState, ring []Access, cur C) {
	r := &st.rng
	lay := &g.lay
	spec := &g.spec
	gen := st.genRefs
	phased := len(spec.Phases) > 0
	mig := st.mig
	privSweep := st.privSweep
	base := uint64(t) * lay.privPerThread
	mix := st.mix

	for i := range ring {
		gen++
		// Track phase transitions (no-op for unphased specs).
		if phased {
			if idx := spec.phaseAt(gen + spec.PhaseOffset); idx != st.phaseIdx {
				st.phaseIdx = idx
				st.mix = spec.mixFor(idx)
				mix = st.mix
			}
		}

		// An in-progress migratory episode takes priority: the burst must
		// finish with its write for ownership to move.
		if mig.remaining > 0 {
			mig.remaining--
			ring[i] = Access{
				Block: lay.migBase + mig.block,
				Write: mig.remaining == 0,
			}
			continue
		}

		u := r.Float64()
		switch {
		case u < mix.pMig:
			// Start a migratory episode on a uniformly chosen block of the
			// small migratory region; it was most likely last written by
			// another thread, so the first touch is a dirty transfer.
			b := r.Uint64n(lay.migLen)
			mig = migRun{block: b, remaining: spec.MigBurst - 1}
			ring[i] = Access{Block: lay.migBase + b}

		case u < mix.pMig+mix.pScan:
			// Collaborative scan: ScanReadsPerBlock consecutive scan
			// references (across all threads) land on the same block before
			// the shared cursor advances, so trailing reads — usually by a
			// different thread — hit the leader's cache.
			ring[i] = cur.scan()

		case u < mix.pMig+mix.pScan+mix.pShared:
			// Shared-read region: cold coverage sweep (fast on the first
			// lap, then a trickle) or the Zipf-hot set.
			coldP := spec.SharedColdSteady
			if !cur.steadyShared() {
				coldP = spec.SharedColdWarm
			}
			if r.Bool(coldP) {
				ring[i] = cur.cold()
			} else {
				b := g.zipfShared.Sample(r)
				ring[i] = Access{Block: lay.sharedBase + b, Write: r.Bool(mix.writeFracShared)}
			}

		default:
			// Private partition: coverage sweep or the per-thread hot set.
			sweepP := mix.sweepSteady
			if privSweep < lay.privPerThread {
				sweepP = spec.SweepWarm
			}
			if r.Bool(sweepP) {
				ring[i] = Access{Block: base + privSweep%lay.privPerThread}
				privSweep++
			} else {
				b := g.zipfPriv.Sample(r)
				ring[i] = Access{Block: base + b, Write: r.Bool(mix.writeFrac)}
			}
		}
	}

	st.genRefs = gen
	st.mig = mig
	st.privSweep = privSweep
}

// RegionOf classifies a block index produced by this generator.
func (g *Generator) RegionOf(block uint64) Region {
	return regionOf(g.lay, block)
}

func regionOf(l layout, block uint64) Region {
	switch {
	case block < l.sharedBase:
		return RegionPrivate
	case block < l.migBase:
		return RegionShared
	case block < l.scanBase:
		return RegionMigratory
	default:
		return RegionScan
	}
}

// Refs returns thread t's consumed-reference count so far: everything
// generated minus what still sits unconsumed in the thread's ring.
func (g *Generator) Refs(t int) uint64 {
	return g.genRefs[t] - uint64(genBatch-g.ringPos[t])
}

// TotalRefs returns the workload's total consumed-reference count.
func (g *Generator) TotalRefs() uint64 {
	var n uint64
	for t := range g.genRefs {
		n += g.Refs(t)
	}
	return n
}

// Transactions returns completed transactions (total references divided
// by the workload's transaction size, per §V's cycles-per-transaction
// framing).
func (g *Generator) Transactions() uint64 {
	return g.TotalRefs() / uint64(g.spec.RefsPerTx)
}
