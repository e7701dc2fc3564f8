package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/obs"
	"consim/internal/sched"
	"consim/internal/workload"
)

// The three mix workloads share one input: the four-workload
// consolidation (one VM each of TPC-W, SPECjbb, TPC-H and SPECweb) on a
// shared-4 LLC with affinity placement at scale 16 — the configuration
// BenchmarkSimulatorThroughput and BENCH_consim.json track. Each VM owns
// one bank group, so there is no cache-to-cache traffic between VMs.
// Budgets are per-core references. A run repeats the simulation for its
// whole time, so a repetition is kept short enough that a run holds
// several; 25k/100k gives the same per-reference rates as 50k/200k
// (LLC misses within 3%, the rest within 0.2%). The sampled workload
// keeps the longer measurement, or there would be little to skip.
const (
	mixScale          = 16
	mixWarm           = 25_000
	mixMeasure        = 100_000
	sampledMixWarm    = 50_000
	sampledMixMeasure = 200_000
)

// The figures workload runs these artifacts through one Runner: 56
// distinct simulations for 116 requests, so set-up, the pool and
// memoization do real work, and the round-robin and random cells carry
// the replication and c2c traffic the mix lacks. It runs at the mix's
// scale, 16, where a repetition takes about 3.6 s on two 2 GHz Xeon
// vCPUs (19 s at scale 4), so that ten runs in a row span little host
// time. The budgets are the shortest whose per-reference rates (private,
// LLC and memory misses, c2c over all 56 cells) stay within 1% of
// cmd/tables' 600k/1M at the same scale; at 50k/12.5k the LLC misses 4.6%
// and memory reads 7% too often. Set-up is 3% of the simulation time
// here against 0.1% at 600k/1M. F12 is left out: its 16 four-VM cells
// take longer than all the rest.
var figureIDs = []string{"T2", "F2", "F3", "F4"}

const (
	figScale    = 16
	figWarm     = 62_500
	figMeasure  = 12_500
	figParallel = 2
)

// Sampling and pdes settings of the approximate-engine workloads.
var sampleCfg = core.SampleConfig{WindowRefs: 5000, FFRatio: 4, CITarget: 0.05, MaxRefs: 40_000}

const pdesWorkers = 2

func mixConfig(seed uint64, scale int) core.Config {
	specs := workload.Specs()
	cfg := core.DefaultConfig(specs[workload.TPCW], specs[workload.SPECjbb],
		specs[workload.TPCH], specs[workload.SPECweb])
	cfg.GroupSize = 4
	cfg.Policy = sched.Affinity
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.WarmupRefs = mixWarm
	cfg.MeasureRefs = mixMeasure
	return cfg
}

// repOut is one timed repetition of a workload.
type repOut struct {
	wall     float64 // seconds of the timed run, or of the whole suite
	refs     uint64  // references simulated in measured windows (and fast-forwarded)
	allocs   uint64  // heap allocations during set-up and run
	digest   uint64
	errs     []error
	results  []core.Result // the run's result, or every cell of the suite
	relErr   float64       // worst per-VM deviation from the sequential reference
	c2cErr   float64       // worst Table II c2c error (figures)
	requests int           // simulations requested; figure cells count once per figure
	sims     uint64        // simulations the runner executed (figures)
}

// bench is one workload: a set-up to time, an untimed preparation, and
// a repetition to time. o, when non-nil, is attached to the program as
// its observer; sp records the benchmark's spans.
type bench interface {
	prepare(sp *spanLog) error
	setup() (float64, error)
	rep(o *obs.Observer, sp *spanLog) repOut
	// seqConfig is the workload's inputs under the sequential engine:
	// its generators feed timeLayers.
	seqConfig() core.Config
}

// mixBench runs the mix under one engine. Approximate engines are
// checked against the sequential run of the same configuration and
// seed, computed once in prepare, outside the timed region.
type mixBench struct {
	name  string
	cfg   core.Config
	bound func(res core.Result) float64 // the engine's published error bound; nil when exact
	ref   *core.Result
	// seqWalls are the simulation times of the sequential runs of the
	// inputs: the reference, and under pdes one more per addBaseline.
	seqWalls []float64
}

func newMixBench(name string, seed uint64) (bench, error) {
	b := &mixBench{name: name, cfg: mixConfig(seed, mixScale)}
	switch name {
	case "mix_seq":
	case "mix_pdes":
		b.cfg.Pdes = pdesWorkers
		b.cfg.PdesReplayWorkers = pdesWorkers
		b.bound = func(core.Result) float64 { return harness.DefaultPdesBound }
		return pdesBench{b}, nil
	case "mix_sampled":
		b.cfg.WarmupRefs, b.cfg.MeasureRefs = sampledMixWarm, sampledMixMeasure
		b.cfg.Sample = sampleCfg
		// The sampling engine's declared bound: twice the worse of the CI
		// target and the worst achieved CI (harness.CompareSampledRun).
		b.bound = func(res core.Result) float64 {
			return 2 * math.Max(res.Config.Sample.CITarget, res.Sample.AchievedRelCI)
		}
	default:
		return nil, fmt.Errorf("unknown mix workload %q", name)
	}
	return b, nil
}

// seqConfig is the workload's configuration under the sequential
// engine, which is also its reference run.
func (b *mixBench) seqConfig() core.Config {
	cfg := b.cfg
	cfg.Pdes, cfg.PdesReplayWorkers, cfg.Sample = 0, 0, core.SampleConfig{}
	return cfg
}

func (b *mixBench) prepare(sp *spanLog) error {
	if b.bound == nil {
		return nil
	}
	defer sp.begin("reference mix_seq")()
	ref, err := runOnce(b.seqConfig())
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	b.ref = &ref
	b.seqWalls = append(b.seqWalls, ref.WallSeconds)
	return nil
}

// pdesBench is mix_pdes. Its traced runs also time the sequential
// engine on the same inputs, alternately with the pdes repetitions.
type pdesBench struct{ *mixBench }

// addBaseline runs the sequential reference once more, so the speed-up
// compares sequential and pdes runs taken over the same stretch of host
// time. Its statistics must equal the reference's.
func (b pdesBench) addBaseline(sp *spanLog) error {
	defer sp.begin("reference mix_seq")()
	res, err := runOnce(b.seqConfig())
	if err != nil {
		return fmt.Errorf("sequential baseline: %w", err)
	}
	if digestResults(res) != digestResults(*b.ref) {
		return fmt.Errorf("sequential baseline: digest differs from the reference run's")
	}
	b.seqWalls = append(b.seqWalls, res.WallSeconds)
	return nil
}

func (b pdesBench) baselineWalls() []float64 { return b.seqWalls }

func runOnce(cfg core.Config) (core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.Run()
}

func (b *mixBench) setup() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	_, err := core.NewSystem(b.cfg)
	return time.Since(t0).Seconds(), err
}

func (b *mixBench) rep(o *obs.Observer, sp *spanLog) repOut {
	cfg := b.cfg
	cfg.Obs = o.Hooks()
	var out repOut
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := sp.begin("setup")
	sys, err := core.NewSystem(cfg)
	end()
	if err != nil {
		out.errs = append(out.errs, fmt.Errorf("set-up: %w", err))
		return out
	}
	end = sp.begin("run " + b.name)
	t0 := time.Now()
	res, err := sys.Run()
	out.wall = time.Since(t0).Seconds()
	end()
	runtime.ReadMemStats(&m1)
	out.allocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		out.errs = append(out.errs, fmt.Errorf("run: %w", err))
		return out
	}
	out.results, out.requests = []core.Result{res}, 1
	out.refs = measuredRefs(res) + res.Sample.SkippedRefs*uint64(activeCores(res.Config))
	out.digest = digestResults(res)
	out.errs = append(out.errs, conservation(b.name, res)...)
	if b.ref != nil {
		out.relErr = maxRelErr(res, *b.ref)
		if bound := b.bound(res); out.relErr > bound {
			out.errs = append(out.errs, fmt.Errorf("%s: deviation %.4f from sequential exceeds bound %.4f",
				b.name, out.relErr, bound))
		}
	}
	return out
}

// activeCores is the number of cores running a thread.
func activeCores(cfg core.Config) int {
	if n := cfg.TotalThreads(); n < cfg.Cores {
		return n
	}
	return cfg.Cores
}

// figuresBench regenerates figureIDs through one Runner.
type figuresBench struct {
	opt harness.Options
}

func newFiguresBench(seed uint64) *figuresBench {
	return &figuresBench{opt: harness.Options{
		Scale: figScale, WarmupRefs: figWarm, MeasureRefs: figMeasure,
		Seed: seed, Parallel: figParallel,
	}}
}

func (b *figuresBench) seqConfig() core.Config {
	cfg := mixConfig(b.opt.Seed, figScale)
	cfg.WarmupRefs, cfg.MeasureRefs = figWarm, figMeasure
	return cfg
}

func (b *figuresBench) prepare(*spanLog) error { return nil }

// setup times what every simulation of the suite starts with: the
// runner, and one system at the suite's scale (its four-VM cell).
func (b *figuresBench) setup() (float64, error) {
	runtime.GC()
	t0 := time.Now()
	harness.NewRunner(b.opt)
	_, err := core.NewSystem(b.seqConfig())
	return time.Since(t0).Seconds(), err
}

func (b *figuresBench) rep(o *obs.Observer, sp *spanLog) repOut {
	opt := b.opt
	opt.Obs = o
	var out repOut
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := sp.begin("setup")
	r := harness.NewRunner(opt)
	end()
	end = sp.begin("run figures")
	t0 := time.Now()
	tables := make([]*harness.Table, 0, len(figureIDs))
	for _, id := range figureIDs {
		endFig := sp.begin("figure " + id)
		t, err := r.RunFigure(id)
		endFig()
		if err != nil {
			out.errs = append(out.errs, fmt.Errorf("figure %s: %w", id, err))
			continue
		}
		tables = append(tables, t)
	}
	out.wall = time.Since(t0).Seconds()
	end()
	runtime.ReadMemStats(&m1)
	out.allocs = m1.Mallocs - m0.Mallocs
	out.sims = r.Sims()
	if len(out.errs) > 0 {
		return out
	}

	// Read every cell back from the runner's memo for the per-cell
	// checks and counts. A read-back that simulates means the list
	// names a cell the suite never ran.
	cells, perFigure, err := figureCells(r)
	if err != nil {
		out.errs = append(out.errs, err)
		return out
	}
	if n := r.Sims() - out.sims; n > 0 {
		out.errs = append(out.errs, fmt.Errorf("figures: reading back %d cells ran %d new simulations", len(cells), n))
	}
	out.requests = perFigure
	out.results = cells
	for i, c := range cells {
		out.refs += measuredRefs(c)
		out.errs = append(out.errs, conservation(fmt.Sprintf("cell %d %s", i, c.Config.Label()), c)...)
	}
	out.digest = digestResults(cells...) ^ digestTables(tables)
	out.c2cErr, err = table2C2CErr(tables[0])
	if err != nil {
		out.errs = append(out.errs, err)
	}
	return out
}

// figureCells returns the result of every distinct simulation the
// suite runs, read from r's memo, and the number of cells the figures
// request counted per figure (cells shared between figures count once
// per figure). The lists mirror the sweeps in internal/harness/figures.go;
// the caller checks that reading them back runs no simulation.
func figureCells(r *harness.Runner) ([]core.Result, int, error) {
	type iso struct {
		class  workload.Class
		gs     int
		policy sched.Policy
	}
	isoGrid := func(groupSizes []int, policies []sched.Policy) []iso {
		var out []iso
		for _, c := range workload.All() {
			for _, gs := range groupSizes {
				for _, p := range policies {
					out = append(out, iso{c, gs, p})
				}
			}
		}
		return out
	}
	rrAff := []sched.Policy{sched.RoundRobin, sched.Affinity}
	figs := [][]iso{
		isoGrid([]int{1}, []sched.Policy{sched.Affinity}),    // T2
		isoGrid([]int{core.DefaultCores, 8, 4, 1}, rrAff),    // F2
		isoGrid([]int{core.DefaultCores, 8, 4, 1}, rrAff),    // F3
		isoGrid([]int{core.DefaultCores, 4, 1}, sched.All()), // F4
	}
	var cells []core.Result
	requests := 0
	seen := map[iso]bool{}
	for _, fig := range figs {
		requests += len(fig)
		for _, k := range fig {
			if seen[k] {
				continue
			}
			seen[k] = true
			res, err := r.RunIsolation(k.class, k.gs, k.policy)
			if err != nil {
				return nil, 0, err
			}
			cells = append(cells, res)
		}
	}
	return cells, requests, nil
}

// digestTables digests every value of the rendered tables.
func digestTables(tables []*harness.Table) uint64 {
	h := fnv.New64a()
	for _, t := range tables {
		fmt.Fprintf(h, "%s\x00", t.ID)
		for _, row := range t.Rows {
			fmt.Fprintf(h, "%s\x00", row.Label)
			for _, v := range row.Values {
				writeU64(h, math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

// table2C2CErr is the worst |simulated - paper| c2c fraction over
// Table II's four workloads.
func table2C2CErr(t *harness.Table) (float64, error) {
	if t == nil || t.ID != "T2" {
		return 0, fmt.Errorf("table2_c2c_err: Table II missing")
	}
	targets := workload.TableII()
	worst := 0.0
	for _, c := range workload.All() {
		got, ok := t.Get(c.String(), "c2c all")
		if !ok {
			return 0, fmt.Errorf("table2_c2c_err: no c2c value for %s", c)
		}
		worst = math.Max(worst, math.Abs(got-targets[c].C2CAll))
	}
	return worst, nil
}
