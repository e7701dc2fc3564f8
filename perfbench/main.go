// Command perfbench is consim's benchmark. One invocation runs one
// workload for a given time from a single process, checks that the
// simulated outputs are correct, and prints every metric by name and
// unit; its last line is a JSON summary.
//
//	perfbench -workload mix_seq -seed 1 -seconds 4 -trace 0
//	perfbench compare base.json head.json
//
// Workloads (see workloads.go for why each was chosen):
//
//   - mix_seq: the four-VM consolidation, one long sequential run.
//   - mix_pdes: the same inputs under the parallel engine (-pdes 2, two
//     replay workers).
//   - mix_sampled: the same inputs under interval sampling.
//   - figures: T2, F2, F3 and F4 through one Runner, parallel 2.
//
// With -trace 0 the run reports the end-to-end metrics from untraced
// repetitions: the fastest one for times, since host noise only ever
// slows a repetition down. With -trace 1 it alternates untraced and traced
// repetitions (the benchmark's spans around each call into the program,
// and an obs.Observer attached for counts), times each layer's public functions, and
// reports the per-layer metrics and the layer-cost table. -outdir
// receives the run's record, for compare, and the spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"consim/internal/obs"
)

// setupsPerRep is how many set-ups are timed for setup_s before each
// repetition, so they sample the same stretch of host time as the runs.
const setupsPerRep = 15

// minUntraced is the fewest untraced repetitions a run makes, however
// long they take, so that it has a fastest one to choose. Runs are kept
// to about this many repetitions: on a shared host the speed drifts by
// tens of percent over minutes, so ten short runs in a row agree better
// than ten long ones, whose fastest repetitions lie further apart.
const minUntraced = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mix_seq, mix_pdes, mix_sampled or figures")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 4, "measure for at least this long")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics from untraced runs, 1 = per-layer metrics from a traced run")
	outdir := fs.String("outdir", "", "directory for the run's record and spans (empty = write none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec, err := measure(stdout, b, *name, *seed, *seconds, *trace == 1, *outdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newBench(name string, seed uint64) (bench, error) {
	if name == "figures" {
		return newFiguresBench(seed), nil
	}
	return newMixBench(name, seed)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.json head.json")
		return 2
	}
	base, err := readRecord(args[0])
	if err == nil {
		var head record
		if head, err = readRecord(args[1]); err == nil {
			err = compareRecords(stdout, base, head)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

// baseliner is a bench whose engine is compared with sequential runs of
// the same inputs, taken alternately with its repetitions (mix_pdes).
type baseliner interface {
	addBaseline(sp *spanLog) error
	baselineWalls() []float64
}

// reps is what a run's repetitions produced.
type reps struct {
	t                tally
	setups           []float64
	untraced, traced []repOut
	lastObs          *obs.Observer // observer of the last traced repetition
	digest           digestCheck
	relErr, c2cErr   float64
	seqWalls         []float64 // sequential baseline times (mix_pdes, traced runs)
}

// measure runs one workload and returns its record. Repetitions run
// until seconds have passed (at least one untraced, and one traced when
// tracing). A repetition with any failed check counts as failed.
func measure(w io.Writer, b bench, name string, seed uint64, seconds float64, trace bool, outdir string) (record, error) {
	rec := record{
		Workload:    name,
		Seed:        seed,
		Trace:       trace,
		Fingerprint: hostFingerprint(sourceRoot()),
		Metrics:     map[string]metric{},
		Summaries:   map[string]summary{},
	}
	fp := rec.Fingerprint
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "fingerprint: cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s pgo=%v\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.PGO)

	sp := newSpanLog(fmt.Sprintf("%s-seed%d", name, seed))
	r := repeat(b, seconds, trace, sp)
	rec.Digest = fmt.Sprintf("%016x", r.digest.first)
	fmt.Fprintf(w, "digest: %s (identical across %d repetitions: %v)\n", rec.Digest, len(r.untraced)+len(r.traced), !r.digest.mismatch)
	if len(r.untraced) > 0 && !trace {
		reportEndToEnd(w, &rec, r)
	}
	if len(r.untraced) > 0 && len(r.traced) > 0 {
		sp.on = true
		lc, err := timeLayers(b.seqConfig(), sp)
		sp.on = false
		if err != nil {
			r.t.record([]error{fmt.Errorf("layers: %w", err)})
		} else {
			reportLayers(w, &rec, r, lc)
			sp.writeSelfTimes(w)
		}
	}
	rec = finish(w, rec, &r.t)
	if outdir == "" {
		return rec, nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return rec, err
	}
	base := filepath.Join(outdir, fmt.Sprintf("%s-seed%d", name, seed))
	if trace {
		if err := sp.writeFile(base + "-spans.json"); err != nil {
			return rec, err
		}
	}
	path := fmt.Sprintf("%s-trace%d.json", base, boolInt(trace))
	if err := writeRecord(path, rec); err != nil {
		return rec, err
	}
	fmt.Fprintf(w, "record: %s\n", path)
	return rec, nil
}

// repeat prepares b, then alternates timed set-ups and repetitions
// (every other one traced when tracing) until seconds have passed and
// minUntraced untraced repetitions ran. When tracing a baseliner, a
// sequential baseline follows each untraced repetition.
func repeat(b bench, seconds float64, trace bool, sp *spanLog) *reps {
	r := &reps{}
	sp.on = trace
	err := b.prepare(sp)
	sp.on = false
	if err != nil {
		r.t.record([]error{err})
		return r
	}
	start := time.Now()
	for i := 0; ; i++ {
		for j := 0; j < setupsPerRep; j++ {
			s, err := b.setup()
			if err != nil {
				r.t.record([]error{fmt.Errorf("set-up: %w", err)})
				return r
			}
			r.setups = append(r.setups, s)
		}
		tracedRep := trace && i%2 == 1
		var o *obs.Observer
		if tracedRep {
			o = obs.NewObserver(nil, nil, nil)
			r.lastObs = o
		}
		sp.on = tracedRep
		out := b.rep(o, sp)
		sp.on = false
		if out.digest != 0 {
			if err := r.digest.check(out.digest); err != nil {
				out.errs = append(out.errs, err)
			}
		}
		r.t.record(out.errs)
		r.relErr = max(r.relErr, out.relErr)
		r.c2cErr = max(r.c2cErr, out.c2cErr)
		if len(out.results) == 0 {
			return r // nothing was measured; the failure is counted
		}
		if tracedRep {
			r.traced = append(r.traced, out)
		} else {
			r.untraced = append(r.untraced, out)
			if bl, ok := b.(baseliner); ok && trace {
				sp.on = true
				err := bl.addBaseline(sp)
				sp.on = false
				var errs []error
				if err != nil {
					errs = append(errs, err)
				}
				r.t.record(errs)
				r.seqWalls = bl.baselineWalls()
			}
		}
		if time.Since(start).Seconds() >= seconds && len(r.untraced) >= minUntraced && (!trace || len(r.traced) >= 1) {
			return r
		}
	}
}

// reportEndToEnd sets and prints the end-to-end metrics of the untraced
// repetitions, and the accuracy and failure figures beside them. Host
// slowdowns only ever lengthen a repetition, so wall_s and refs_per_s
// come from the fastest repetition; setup_s and allocs_per_ref are
// medians.
func reportEndToEnd(w io.Writer, rec *record, r *reps) {
	var walls, rates, allocs []float64
	for _, out := range r.untraced {
		walls = append(walls, out.wall)
		rates = append(rates, float64(out.refs)/out.wall)
		allocs = append(allocs, float64(out.allocs)/float64(out.refs))
	}
	put := func(name string, xs []float64, pick func(summary) float64, how string) {
		s := summarize(xs)
		rec.Summaries[name] = s
		rec.Metrics[name] = metric{pick(s), unitOf(name)}
		fmt.Fprintf(w, "%-16s %.6g %s (%s; %s)\n", name, pick(s), unitOf(name), how, s)
	}
	med := func(s summary) float64 { return s.Median }
	fmt.Fprintf(w, "wall_s per repetition: %.4g\n", walls)
	put("setup_s", r.setups, med, "median")
	put("wall_s", walls, func(s summary) float64 { return s.Min }, "fastest")
	put("refs_per_s", rates, func(s summary) float64 { return s.Max }, "fastest")
	put("allocs_per_ref", allocs, med, "median")
	rec.Metrics["peak_mem_mb"] = metric{peakMemMB(), unitOf("peak_mem_mb")}
	fmt.Fprintf(w, "%-16s %.6g %s\n", "peak_mem_mb", rec.Metrics["peak_mem_mb"].Value, unitOf("peak_mem_mb"))
	fmt.Fprintf(w, "%-16s %.6g (worst per-VM deviation from sequential, where it applies)\n", "max_rel_err", r.relErr)
	fmt.Fprintf(w, "%-16s %.6g (worst |simulated - paper| Table II c2c, where it applies)\n", "table2_c2c_err", r.c2cErr)
	fmt.Fprintf(w, "%-16s %.6g (%d/%d)\n", "failed_frac", r.t.frac(), r.t.failed, r.t.attempted)
}

// reportLayers sets and prints the per-layer metrics, each with the
// end-to-end metric and workload it should move.
func reportLayers(w io.Writer, rec *record, r *reps, lc layerCosts) {
	for k, v := range layerMetrics(w, r, lc) {
		rec.Metrics[k] = v
	}
	rec.Metrics["failed_frac"] = metric{r.t.frac(), unitOf("failed_frac")}
	rec.Metrics["max_rel_err"] = metric{r.relErr, unitOf("max_rel_err")}
	rec.Metrics["table2_c2c_err"] = metric{r.c2cErr, unitOf("table2_c2c_err")}
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-36s %14.6g %-10s moves: %s\n", m.name, rec.Metrics[m.name].Value, m.unit, m.moves)
	}
}

// finish stamps the tally into rec, prints failure reasons, and fills
// any metric the run could not measure with 0.
func finish(w io.Writer, rec record, t *tally) record {
	rec.Attempted, rec.Failed = t.attempted, t.failed
	for _, r := range t.reasons {
		fmt.Fprintf(w, "FAILED: %s\n", r)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		if _, ok := rec.Metrics[m.name]; !ok {
			rec.Metrics[m.name] = metric{0, m.unit}
		}
	}
	return rec
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sourceRoot is the consim module root: the benchmark runs from it.
func sourceRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

// peakMemMB is the process's peak resident set (VmHWM) in MB, or the
// memory obtained from the OS where /proc is unavailable.
func peakMemMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(v); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// medianRep returns the repetition with the median wall time.
func medianRep(outs []repOut) repOut {
	sorted := append([]repOut(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].wall < sorted[j].wall })
	return sorted[len(sorted)/2]
}

// layerMetrics derives every per-layer metric. Counts come from the
// traced repetition's observer and results; times of the program's
// phases, of the engines and of the harness come from the median
// untraced repetition; per-call costs come from timeLayers. The pdes,
// sampling and harness metrics stay unset (0) on workloads that do not
// run that engine or the runner.
func layerMetrics(w io.Writer, r *reps, lc layerCosts) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	reg, sm := r.lastObs.Reg, r.lastObs.Sim
	tr := r.traced[len(r.traced)-1]
	mid := medianRep(r.untraced)

	var st struct{ priv, llc, c2c, inval, upg uint64 }
	// Mesh and memory waits are per-run averages; weight each run (or
	// figure cell) by its measured references.
	var hops, netWait, memWait, weight float64
	for _, res := range tr.results {
		n := float64(measuredRefs(res))
		weight += n
		for _, v := range res.VMs {
			s := v.Stats
			st.priv += s.PrivMisses
			st.llc += s.LLCMisses
			st.c2c += s.C2C()
			st.inval += s.Invalidations
			st.upg += s.Upgrades
		}
		hops += res.NetAvgHops * n
		netWait += res.NetAvgWait * n
		memWait += res.MemAvgWait * n
	}
	// Per-reference rates divide by the references the run processed:
	// on mix_sampled that includes the fast-forwarded ones, which pass
	// through the caches without timing and without per-VM counts.
	refs := float64(tr.refs)
	per := func(x uint64) float64 { return float64(x) / refs }
	allRefs := float64(reg.Value(sm.Refs)) // warm-up included, as the directory-cache counts are

	var acc, miss, evict [numLevels]uint64
	for lv := range acc {
		acc[lv] = reg.Value(sm.LevelAccesses[lv])
		miss[lv] = reg.Value(sm.LevelMisses[lv])
		evict[lv] = reg.Value(sm.LevelEvictions[lv])
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set("workload.next_ns", lc.next.Median)
	set("cache.l0_access_per_ref", per(acc[levelL0]))
	set("cache.l0_hit_ratio", 1-ratio(miss[levelL0], acc[levelL0]))
	set("cache.l1_hit_ratio", 1-ratio(miss[levelL1], acc[levelL1]))
	set("cache.llc_access_per_ref", per(acc[levelLLC]))
	set("cache.llc_hit_ratio", 1-ratio(miss[levelLLC], acc[levelLLC]))
	set("cache.llc_evict_per_ref", per(evict[levelLLC]))
	var hitW, missW, hitNs, missNs, insNs float64
	for lv := range acc {
		h, mi := float64(acc[lv]-miss[lv]), float64(miss[lv])
		hitW += h
		missW += mi
		hitNs += h * lc.lookupHit[lv].Median
		missNs += mi * lc.lookupMiss[lv].Median
		insNs += mi * lc.insertEvict[lv].Median
	}
	if hitW > 0 && missW > 0 {
		set("cache.lookup_hit_ns", hitNs/hitW)
		set("cache.lookup_miss_ns", missNs/missW)
		set("cache.insert_evict_ns", insNs/missW)
	}

	dcHits, dcMisses := reg.Value(sm.DirCacheHits), reg.Value(sm.DirCacheMisses)
	set("coherence.dircache_access_per_ref", float64(dcHits+dcMisses)/allRefs)
	set("coherence.dircache_hit_ratio", ratio(dcHits, dcHits+dcMisses))
	set("coherence.dir_entries", float64(reg.Value(sm.DirEntries))/float64(len(tr.results)))
	set("coherence.c2c_per_ref", per(st.c2c))
	set("coherence.inval_per_ref", per(st.inval))
	set("coherence.upgrade_per_ref", per(st.upg))
	set("coherence.dir_get_ns", lc.dirGet.Median)
	set("coherence.dir_release_ns", lc.dirRelease.Median)
	set("coherence.dircache_access_ns", lc.dcAccess.Median)

	set("mesh.avg_hops", hops/weight)
	set("mesh.avg_wait_cycles", netWait/weight)
	set("mesh.latency_ns", lc.meshLatency.Median)

	memReads, memWBs := reg.Value(sm.MemReads2), reg.Value(sm.MemWritebacks)
	set("memctrl.reads_per_ref", per(memReads))
	set("memctrl.writebacks_per_ref", per(memWBs))
	set("memctrl.avg_wait_cycles", memWait/weight)
	set("memctrl.read_ns", lc.memRead.Median)
	set("sim.eventq_pushpop_ns", lc.pushPop.Median)

	var warmS, measS float64
	for _, res := range mid.results {
		warmS += res.Phase.WarmupSeconds
		measS += res.Phase.MeasureSeconds
	}
	nsPerRef := measS * 1e9 / float64(mid.refs)
	set("core.warmup_s", warmS)
	set("core.measure_s", measS)
	set("core.ns_per_ref", nsPerRef)

	lookupNs := func(lv int) float64 {
		if acc[lv] == 0 {
			return 0
		}
		h := float64(acc[lv] - miss[lv])
		return (h*lc.lookupHit[lv].Median + float64(miss[lv])*lc.lookupMiss[lv].Median) / float64(acc[lv])
	}
	rows := []costRow{
		{layer: "workload.Generator.Next", opsPerRef: 1, nsPerOp: lc.next.Median},
		{layer: "sim.EventQueue push+pop", opsPerRef: 1, nsPerOp: lc.pushPop.Median},
	}
	for lv := 0; lv < numLevels; lv++ {
		rows = append(rows,
			costRow{layer: "cache." + levelNames[lv] + " lookup", opsPerRef: per(acc[lv]), nsPerOp: lookupNs(lv)},
			costRow{layer: "cache." + levelNames[lv] + " fill", opsPerRef: per(miss[lv]), nsPerOp: lc.insertEvict[lv].Median})
	}
	rows = append(rows,
		costRow{layer: "coherence.Directory.Get", opsPerRef: per(st.priv + st.upg), nsPerOp: lc.dirGet.Median, estimatedOps: true},
		costRow{layer: "coherence.Directory.Release", opsPerRef: per(evict[levelL1] + evict[levelLLC]), nsPerOp: lc.dirRelease.Median, estimatedOps: true},
		costRow{layer: "coherence.DirCache.Access", opsPerRef: float64(dcHits+dcMisses) / allRefs, nsPerOp: lc.dcAccess.Median},
		costRow{layer: "mesh.Model.Latency", opsPerRef: per(3*st.llc + 2*st.upg + 2*st.inval), nsPerOp: lc.meshLatency.Median, estimatedOps: true},
		costRow{layer: "memctrl.Read", opsPerRef: per(memReads), nsPerOp: lc.memRead.Median},
		costRow{layer: "memctrl.Writeback", opsPerRef: per(memWBs), nsPerOp: lc.memWriteback.Median},
	)
	covered := costTable(w, rows, nsPerRef)
	set("core.layer_cover_ratio", covered/nsPerRef)
	set("core.residue_ns_per_ref", nsPerRef-covered)

	if p := mid.results[0]; mid.sims == 0 && p.Pdes.Windows > 0 {
		busy := 0.0
		for _, d := range p.Phase.Domains {
			busy += d.BusySeconds
		}
		set("pdes.window_s", p.Phase.PdesWindowSeconds)
		set("pdes.replay_s", p.Phase.PdesReplaySeconds)
		set("pdes.replay_parallel_s", p.Phase.PdesReplayParallelSeconds)
		set("pdes.replay_merge_s", p.Phase.PdesReplayMergeSeconds)
		set("pdes.barrier_s", p.Phase.PdesBarrierSeconds)
		set("pdes.stall_s", p.Phase.PdesStallSeconds)
		set("pdes.domain_busy_s", busy)
		set("pdes.windows", float64(p.Pdes.Windows))
		set("pdes.ops_per_ref", float64(p.Pdes.Ops)/allRefs)
		set("pdes.apply_fraction", p.Phase.ApplyFraction(p.WallSeconds))
		// Both pdes timers span warm-up and measurement, so the
		// sequential base is the whole simulation time of the same
		// inputs. Each side is a median: the pdes repetitions, and the
		// sequential runs taken alternately with them.
		var walls, work []float64
		for _, out := range r.untraced {
			res := out.results[0]
			walls = append(walls, res.WallSeconds)
			t := res.Phase.PdesReplaySeconds
			for _, d := range res.Phase.Domains {
				t += d.BusySeconds
			}
			work = append(work, t)
		}
		seqWall := medianOf(r.seqWalls)
		set("pdes.work_inflation", medianOf(work)/seqWall)
		set("pdes.speedup_vs_seq", seqWall/medianOf(walls))
		fmt.Fprintf(w, "pdes.speedup_vs_seq = median sequential %.4g s (n=%d) / median pdes %.4g s (n=%d)\n",
			seqWall, len(r.seqWalls), medianOf(walls), len(walls))
		fmt.Fprintf(w, "pdes.work_inflation = median (domain busy + replay) %.4g s (n=%d) / median sequential %.4g s (n=%d)\n",
			medianOf(work), len(work), seqWall, len(r.seqWalls))
	}

	if sr := mid.results[0]; mid.sims == 0 && sr.Sample.Windows > 0 {
		set("sample.detailed_s", sr.Phase.SampleDetailedSeconds)
		set("sample.ff_s", sr.Phase.SampleFFSeconds)
		set("sample.windows", float64(sr.Sample.Windows))
		set("sample.detailed_refs", float64(sr.Sample.DetailedRefs))
		set("sample.skipped_refs", float64(sr.Sample.SkippedRefs))
		set("sample.ff_cost_ratio", sr.FFCostRatio())
		set("sample.rel_ci", sr.Sample.AchievedRelCI)
	}

	set("harness.newsystem_s", medianOf(r.setups))
	if mid.sims > 0 {
		var sum, slowest float64
		for _, res := range mid.results {
			sum += res.WallSeconds
			slowest = max(slowest, res.WallSeconds)
		}
		set("harness.sims", float64(mid.sims))
		set("harness.memo_hit_ratio", 1-float64(mid.sims)/float64(mid.requests))
		set("harness.pool_util", sum/(figParallel*mid.wall))
		set("harness.sim_wall_max_s", slowest)
	}

	var uw, tw []float64
	for _, out := range r.untraced {
		uw = append(uw, out.wall)
	}
	for _, out := range r.traced {
		tw = append(tw, out.wall)
	}
	set("obs.trace_overhead_frac", (medianOf(tw)-medianOf(uw))/medianOf(uw))
	return m
}
