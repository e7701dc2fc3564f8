// Command bench measures simulator throughput and allocation behaviour
// and appends the numbers to a JSON report history (BENCH_consim.json by
// default), the artifact tracked for performance regressions.
//
// Two sections are measured by default (the -pdessweep and -samplesweep
// engine sections run on request):
//
//   - throughput: repeated runs of the BenchmarkSimulatorThroughput
//     configuration (the 4-VM consolidated machine at 1/16 scale),
//     reporting references simulated per second, bytes allocated per
//     reference, and heap allocations per reference via
//     runtime.ReadMemStats deltas around each run.
//
//   - figures: wall time per requested figure artifact through a
//     Runner, exercising the deduplicated parallel sweep path.
//
// The report file holds a history: each invocation appends one
// timestamped record (newest last) instead of overwriting, so the
// committed file documents how throughput moved over time. A legacy
// single-object file is absorbed as the first history entry. -baseline
// gates against the newest committed record of either schema.
//
// Examples:
//
//	bench                         # default throughput + T2,F2,F12 figures
//	bench -iters 5 -out bench.json
//	bench -figures ""             # throughput only
//	bench -figures "" -baseline BENCH_consim.json  # regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"consim"
	"consim/internal/obs"
)

// Report is one benchmark record; the report file is a JSON array of
// them, newest last.
type Report struct {
	// Time stamps when the record was taken (RFC 3339, UTC).
	Time string `json:"time,omitempty"`
	// Host settings the numbers were taken under.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Throughput configuration and per-iteration results.
	Scale        int     `json:"scale"`
	WarmupRefs   uint64  `json:"warmup_refs"`
	MeasureRefs  uint64  `json:"measure_refs"`
	Iters        int     `json:"iters"`
	RefsPerRun   uint64  `json:"refs_per_run"`
	WallSeconds  float64 `json:"wall_seconds"`   // best iteration
	RefsPerSec   float64 `json:"refs_per_sec"`   // best iteration
	BytesPerRef  float64 `json:"bytes_per_ref"`  // mean over iterations
	AllocsPerRef float64 `json:"allocs_per_ref"` // mean over iterations

	// SampleSweep records the interval-sampling accuracy/speedup section
	// (-samplesweep): each figure built fully detailed and sampled, with
	// per-figure wall times and worst cell deviations against the
	// declared CI-derived error bound.
	SampleSweep *SampleSweepReport `json:"sample_sweep,omitempty"`

	// PdesSweep records the split-transaction parallel engine's scaling
	// section (-pdessweep): the throughput configuration at each worker
	// count, with speedup over the sweep's sequential reference and
	// per-point accuracy against it. Points are recorded only when every
	// per-VM deviation stays inside the equivalence bound.
	PdesSweep *PdesSweepReport `json:"pdes_sweep,omitempty"`

	// Figure suite wall times (seconds), at the benchmark scale.
	FigureParallel int                `json:"figure_parallel,omitempty"`
	FigureSeconds  map[string]float64 `json:"figure_seconds,omitempty"`
	// SweepWallSeconds is the whole figure suite's wall time and
	// PeakRSSBytes the largest runtime.MemStats.Sys observed across the
	// run — the memory the sweep actually held from the OS.
	SweepWallSeconds float64 `json:"sweep_wall_seconds,omitempty"`
	PeakRSSBytes     uint64  `json:"peak_rss_bytes"`
}

// SampleSweepReport is the -samplesweep section: the sampling
// configuration used, the declared error bound (2 x the worse of the CI
// target and the worst achieved CI), per-figure comparisons, and the
// aggregate speedup and worst deviation.
type SampleSweepReport struct {
	WarmupRefs  uint64  `json:"warmup_refs"`
	MeasureRefs uint64  `json:"measure_refs"`
	WindowRefs  uint64  `json:"window_refs"`
	FFRatio     int     `json:"ff_ratio"`
	CITarget    float64 `json:"ci_target"`
	MinWindows  int     `json:"min_windows"`
	MaxRefs     uint64  `json:"max_refs"`

	Bound   float64                   `json:"bound"`
	Figures []consim.FigureComparison `json:"figures"`

	Speedup   float64 `json:"speedup"`     // total detailed wall / total sampled wall
	MaxRelErr float64 `json:"max_rel_err"` // worst cell deviation over all figures
	Pass      bool    `json:"pass"`        // MaxRelErr <= Bound

	// FFCostRatio is the sweep-wide fast-forward cost: wall seconds per
	// skipped reference as a fraction of wall seconds per detailed
	// reference, aggregated over every sampled run in the sweep (the
	// number ROADMAP item 2 tracks; lower is better, 1.0 means skipping a
	// reference costs as much as simulating it). 0 when no run recorded a
	// phase split.
	FFCostRatio float64 `json:"ff_cost_ratio,omitempty"`
}

// PdesSweepReport is the -pdessweep section: the window width used, the
// equivalence bound the points were gated on, one point per swept
// worker count, and whether every point passed. Speedups are honest
// wall-clock ratios under the recorded gomaxprocs — on a single-CPU
// host they sit below 1 (the engine's coordination overhead), and the
// curve is the artifact that documents that.
type PdesSweepReport struct {
	WindowCycles uint64      `json:"window_cycles"`
	Bound        float64     `json:"bound"`
	Points       []PdesPoint `json:"points"`
	Pass         bool        `json:"pass"`
	// GOMAXPROCS/NumCPU pin the host parallelism the sweep ran under, so
	// 1-CPU curves (speedup < 1 by design) and multi-core curves stay
	// distinguishable when histories are diffed. Until now only run
	// manifests carried this.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
}

// PdesPoint is one worker count's measurement (best wall time over the
// iteration count). MaxRelErr is the worst per-VM deviation from the
// sweep's sequential reference on LLC miss rate and cycles per
// transaction; StallFraction is spine wall time spent waiting on worker
// domains at barriers and ApplyFraction the *serial* share of the
// barrier replay — total replay minus the bank-sharded parallel pass —
// the engine's Amdahl terms. ReplayParallelFraction is the share of
// replay time the sharded pass moved off the serial term.
type PdesPoint struct {
	Workers       int     `json:"workers"`
	Domains       int     `json:"domains,omitempty"`
	ReplayWorkers int     `json:"replay_workers,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	Speedup       float64 `json:"speedup"`
	StallFraction float64 `json:"stall_fraction,omitempty"`
	ApplyFraction float64 `json:"apply_fraction,omitempty"`
	// ReplayParallelFraction is ReplayParallelSeconds/ApplySeconds: the
	// share of barrier-replay wall time the bank-sharded pass runs in
	// parallel (0 on serial-replay points).
	ReplayParallelFraction float64 `json:"replay_parallel_fraction,omitempty"`
	Windows                uint64  `json:"windows,omitempty"`
	Ops                    uint64  `json:"ops,omitempty"`
	MaxRelErr              float64 `json:"max_rel_err"`
}

// peakSys returns the high-water mark of memory obtained from the OS.
func peakSys(prev uint64) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.Sys > prev {
		return ms.Sys
	}
	return prev
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchCfg(scale int, warm, meas uint64) consim.Config {
	specs := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(
		specs[consim.TPCW], specs[consim.SPECjbb],
		specs[consim.TPCH], specs[consim.SPECweb],
	)
	cfg.Scale = scale
	cfg.GroupSize = 4
	cfg.WarmupRefs = warm
	cfg.MeasureRefs = meas
	return cfg
}

func run() (err error) {
	var (
		scale    = flag.Int("scale", 16, "throughput run scale divisor")
		warm     = flag.Uint64("warm", 10_000, "warm-up references per core")
		meas     = flag.Uint64("meas", 50_000, "measured references per core")
		iters    = flag.Int("iters", 3, "throughput iterations (best wall time wins)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), consim.ParallelFlagUsage)
		ssweep   = flag.String("samplesweep", "", "comma-separated figure IDs for the sampling accuracy/speedup section, e.g. F3,F4 (empty = skip)")
		sswarm   = flag.Uint64("samplesweep-warm", 60_000, "samplesweep warm-up references per core")
		ssmeas   = flag.Uint64("samplesweep-meas", 1_000_000, "samplesweep detailed measurement references per core")
		sswindow = flag.Uint64("samplesweep-window", 5_000, "samplesweep detailed-window length")
		ssmax    = flag.Uint64("samplesweep-maxrefs", 40_000, "samplesweep per-core detailed-reference budget")
		psweep   = flag.String("pdessweep", "", "comma-separated pdes worker counts for the parallel-engine scaling section, e.g. 1,2,4,8 (empty = skip)")
		pswindow = flag.Uint64("pdessweep-window", 0, "pdessweep window width in cycles (0 = engine default)")
		figures  = flag.String("figures", "T2,F2,F12", "comma-separated figure IDs to time (empty = skip)")
		out      = flag.String("out", "BENCH_consim.json", "report history path; each run appends a record (- = print this run to stdout)")
		baseline = flag.String("baseline", "", "committed report to gate against (newest record); exit non-zero on >10% refs_per_sec regression or any allocs_per_ref growth")
	)
	var ocli obs.CLI
	ocli.Register(flag.CommandLine)
	flag.Parse()

	o, ostop, oerr := ocli.Start(os.Stderr)
	if oerr != nil {
		return oerr
	}
	defer func() {
		if cerr := ostop(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if o != nil {
		o.Parallel = *parallel
	}

	// Resolve the baseline before any writing: gating against the file
	// this run appends to must compare with the last committed record,
	// not the one being taken now.
	var base *Report
	var basePdes *PdesSweepReport
	var baseFFCost float64
	if *baseline != "" {
		hist, err := readReports(*baseline)
		if err != nil {
			return err
		}
		if len(hist) == 0 {
			return fmt.Errorf("%s: empty report history", *baseline)
		}
		base = &hist[len(hist)-1]
		// The pdes sweep is optional per record; gate its apply fractions
		// against the newest record that took one.
		for i := len(hist) - 1; i >= 0; i-- {
			if hist[i].PdesSweep != nil && len(hist[i].PdesSweep.Points) > 0 {
				basePdes = hist[i].PdesSweep
				break
			}
		}
		// Likewise the sample sweep's ff cost ratio: gate against the
		// newest record that measured one.
		for i := len(hist) - 1; i >= 0; i-- {
			if ss := hist[i].SampleSweep; ss != nil && ss.FFCostRatio > 0 {
				baseFFCost = ss.FFCostRatio
				break
			}
		}
	}

	rep := Report{
		Time:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scale:       *scale,
		WarmupRefs:  *warm,
		MeasureRefs: *meas,
		Iters:       *iters,
	}

	// Throughput: same configuration as BenchmarkSimulatorThroughput.
	// One untimed run warms the process, then each timed iteration is
	// bracketed by ReadMemStats so bytes/allocs cover exactly the runs.
	if _, err := consim.Run(benchCfg(*scale, *warm, *meas)); err != nil {
		return err
	}
	var bytesSum, allocsSum float64
	for i := 0; i < *iters; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := consim.Run(benchCfg(*scale, *warm, *meas))
		wall := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)

		var refs uint64
		for _, v := range res.VMs {
			refs += v.Stats.Refs
		}
		rep.RefsPerRun = refs
		bytesSum += float64(after.TotalAlloc - before.TotalAlloc)
		allocsSum += float64(after.Mallocs - before.Mallocs)
		if rps := float64(refs) / wall; rps > rep.RefsPerSec {
			rep.RefsPerSec = rps
			rep.WallSeconds = wall
		}
		fmt.Fprintf(os.Stderr, "[throughput %d/%d: %.0f refs/sec]\n",
			i+1, *iters, float64(refs)/wall)
	}
	perRef := float64(rep.RefsPerRun) * float64(*iters)
	rep.BytesPerRef = bytesSum / perRef
	rep.AllocsPerRef = allocsSum / perRef
	rep.PeakRSSBytes = peakSys(rep.PeakRSSBytes)

	if s := strings.TrimSpace(*psweep); s != "" {
		if rep.PdesSweep, err = pdesSweep(s, *scale, *warm, *meas, *iters, *pswindow); err != nil {
			return err
		}
		rep.PeakRSSBytes = peakSys(rep.PeakRSSBytes)
	}

	if ids := strings.TrimSpace(*ssweep); ids != "" {
		if rep.SampleSweep, err = sampleSweep(ids, *scale, *sswarm, *ssmeas, *sswindow, *ssmax, *parallel); err != nil {
			return err
		}
		rep.PeakRSSBytes = peakSys(rep.PeakRSSBytes)
	}

	// Figure suite timings through the single-flight parallel runner.
	if ids := strings.TrimSpace(*figures); ids != "" {
		rep.FigureParallel = *parallel
		rep.FigureSeconds = make(map[string]float64)
		r := consim.NewRunner(consim.RunnerOptions{
			Scale: *scale, WarmupRefs: *warm, MeasureRefs: *meas,
			Parallel: *parallel, Obs: o,
		})
		sweepStart := time.Now()
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			start := time.Now()
			if _, err := r.RunFigure(id); err != nil {
				return err
			}
			rep.FigureSeconds[id] = time.Since(start).Seconds()
			rep.PeakRSSBytes = peakSys(rep.PeakRSSBytes)
			fmt.Fprintf(os.Stderr, "[figure %s: %.2fs]\n", id, rep.FigureSeconds[id])
		}
		rep.SweepWallSeconds = time.Since(sweepStart).Seconds()
	}

	if *out == "-" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if _, err = os.Stdout.Write(append(buf, '\n')); err != nil {
			return err
		}
	} else {
		n, err := appendReport(*out, rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[appended to %s (%d records): %.0f refs/sec, %.4f allocs/ref]\n",
			*out, n, rep.RefsPerSec, rep.AllocsPerRef)
	}
	if base != nil {
		return gate(rep, *base, basePdes, baseFFCost, *baseline)
	}
	return nil
}

// pdesSweep runs the throughput configuration sequentially once as the
// reference, then once per requested worker count under the
// split-transaction parallel engine (best of iters wall times each).
// Every parallel point's per-VM LLC miss rate and cycles per
// transaction are checked against the sequential reference; a deviation
// beyond the equivalence bound is an error — the engine's accuracy
// contract is deterministic for a fixed (seed, workers, window) triple,
// so a violation is a real defect, not noise. Speedups are relative to
// the sequential reference under the report's recorded gomaxprocs.
func pdesSweep(list string, scale int, warm, meas uint64, iters int, window uint64) (*PdesSweepReport, error) {
	rep := &PdesSweepReport{
		Bound:      consim.DefaultPdesBound,
		Pass:       true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	runBest := func(workers int) (consim.Result, float64, error) {
		cfg := benchCfg(scale, warm, meas)
		if workers > 1 {
			cfg.Pdes = workers
			cfg.PdesWindow = consim.Cycle(window)
			// Shard the barrier replay at the same width: sharding is
			// bit-identical to the serial replay, so the sweep measures
			// the engine the knobs would actually run, and apply_fraction
			// records the post-sharding serial residue.
			cfg.PdesReplayWorkers = workers
		}
		var best consim.Result
		bestWall := 0.0
		for i := 0; i < iters; i++ {
			start := time.Now()
			res, err := consim.Run(cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				return best, 0, err
			}
			if bestWall == 0 || wall < bestWall {
				bestWall, best = wall, res
			}
		}
		return best, bestWall, nil
	}

	ref, baseWall, err := runBest(1)
	if err != nil {
		return nil, err
	}
	point := func(workers int, res consim.Result, wall float64) PdesPoint {
		var refs uint64
		for _, v := range res.VMs {
			refs += v.Stats.Refs
		}
		p := PdesPoint{
			Workers:       workers,
			Domains:       res.Pdes.Domains,
			ReplayWorkers: res.Pdes.ReplayWorkers,
			WallSeconds:   wall,
			RefsPerSec:    float64(refs) / wall,
			Speedup:       baseWall / wall,
			Windows:       res.Pdes.Windows,
			Ops:           res.Pdes.Ops,
		}
		if wall > 0 {
			p.StallFraction = res.Pdes.StallSeconds / wall
			serial := res.Pdes.ApplySeconds - res.Pdes.ReplayParallelSeconds
			if serial < 0 {
				serial = 0
			}
			p.ApplyFraction = serial / wall
		}
		if res.Pdes.ApplySeconds > 0 {
			p.ReplayParallelFraction = res.Pdes.ReplayParallelSeconds / res.Pdes.ApplySeconds
		}
		for v := range res.VMs {
			if ref.VMs[v].Stats.Refs == 0 {
				continue
			}
			miss := relErr(res.VMs[v].MissRate(), ref.VMs[v].MissRate())
			cpt := relErr(res.VMs[v].CyclesPerTx, ref.VMs[v].CyclesPerTx)
			if miss > p.MaxRelErr {
				p.MaxRelErr = miss
			}
			if cpt > p.MaxRelErr {
				p.MaxRelErr = cpt
			}
		}
		return p
	}

	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -pdessweep entry %q", part)
		}
		res, wall := ref, baseWall
		if n > 1 {
			if res, wall, err = runBest(n); err != nil {
				return nil, err
			}
		}
		p := point(n, res, wall)
		if rep.WindowCycles == 0 && res.Pdes.Window > 0 {
			rep.WindowCycles = uint64(res.Pdes.Window)
		}
		rep.Points = append(rep.Points, p)
		fmt.Fprintf(os.Stderr, "[pdes %d: %.3fs, %.2fx, stall %.1f%%, apply %.1f%%, err %.1f%%]\n",
			n, p.WallSeconds, p.Speedup, 100*p.StallFraction, 100*p.ApplyFraction, 100*p.MaxRelErr)
		if p.MaxRelErr > rep.Bound {
			rep.Pass = false
			return rep, fmt.Errorf("pdessweep: workers=%d deviation %.3f exceeds equivalence bound %.3f", n, p.MaxRelErr, rep.Bound)
		}
	}
	return rep, nil
}

// relErr returns |got-want|/|want|; an exact match of a zero reference
// is 0, any deviation from zero is 1.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	return d / want
}

// sampleSweep builds each listed figure twice — fully detailed and
// interval-sampled — and reports per-figure speedup and worst cell
// deviation against the declared error bound. An out-of-bound deviation
// is an error: the sampling engine's accuracy contract is deterministic
// for a fixed seed and configuration, so a violation here is a real
// defect, not noise.
func sampleSweep(list string, scale int, warm, meas, window, maxRefs uint64, parallel int) (*SampleSweepReport, error) {
	sc := consim.SampleConfig{
		WindowRefs: window,
		FFRatio:    4,
		CITarget:   0.05,
		MinWindows: 4,
		MaxRefs:    maxRefs,
	}
	rep := &SampleSweepReport{
		WarmupRefs:  warm,
		MeasureRefs: meas,
		WindowRefs:  sc.WindowRefs,
		FFRatio:     sc.FFRatio,
		CITarget:    sc.CITarget,
		MinWindows:  sc.MinWindows,
		MaxRefs:     sc.MaxRefs,
	}
	var ids []string
	for _, part := range strings.Split(list, ",") {
		ids = append(ids, strings.TrimSpace(part))
	}
	opt := consim.RunnerOptions{
		Scale: scale, WarmupRefs: warm, MeasureRefs: meas, Parallel: parallel,
	}
	figs, bound, err := consim.CompareSampledFigures(opt, sc, ids)
	if err != nil {
		return nil, err
	}
	rep.Figures = figs
	rep.Bound = bound
	var fullSec, sampSec float64
	var ff consim.FFCost
	for _, f := range figs {
		fullSec += f.FullSeconds
		sampSec += f.SampledSeconds
		if f.MaxRelErr > rep.MaxRelErr {
			rep.MaxRelErr = f.MaxRelErr
		}
		if f.FFCost != nil {
			ff.DetailedSeconds += f.FFCost.DetailedSeconds
			ff.FFSeconds += f.FFCost.FFSeconds
			ff.DetailedRefs += f.FFCost.DetailedRefs
			ff.SkippedRefs += f.FFCost.SkippedRefs
		}
		fmt.Fprintf(os.Stderr, "[samplesweep %s: %.2fs -> %.2fs (%.1fx), worst cell %s err %.1f%%, ff cost %.2fx]\n",
			f.ID, f.FullSeconds, f.SampledSeconds, f.Speedup(), f.WorstCell, 100*f.MaxRelErr, f.FFCostRatio)
	}
	if sampSec > 0 {
		rep.Speedup = fullSec / sampSec
	}
	rep.FFCostRatio = ff.Ratio()
	rep.Pass = rep.MaxRelErr <= rep.Bound
	fmt.Fprintf(os.Stderr, "[samplesweep total: %.1fx speedup, max err %.1f%% vs bound %.1f%%, ff cost %.2fx]\n",
		rep.Speedup, 100*rep.MaxRelErr, 100*rep.Bound, rep.FFCostRatio)
	if !rep.Pass {
		return rep, fmt.Errorf("samplesweep: max cell error %.3f exceeds declared bound %.3f", rep.MaxRelErr, rep.Bound)
	}
	return rep, nil
}

// readReports loads a report history, absorbing the legacy single-object
// schema as a one-record history.
func readReports(path string) ([]Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hist []Report
	if err := json.Unmarshal(buf, &hist); err == nil {
		return hist, nil
	}
	var one Report
	if err := json.Unmarshal(buf, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []Report{one}, nil
}

// appendReport adds rep to the history at path (creating it, or
// converting a legacy single-object file) and returns the new record
// count.
func appendReport(path string, rep Report) (int, error) {
	hist, err := readReports(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	hist = append(hist, rep)
	buf, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(hist), nil
}

// gate compares a fresh report against the committed baseline (the
// newest record in the -baseline history, resolved before this run
// appended anything) and returns an error (non-zero exit) on a
// throughput regression beyond 10% — outside normal machine noise — on
// any growth at all in allocations per reference, which are
// deterministic and must only ever go down, or (when both this run and
// the history carry a pdes sweep) on any worker count whose serial
// replay share grew more than obs.ApplyFractionGate points, or (when
// both carry a sample sweep) on the fast-forward cost ratio growing
// more than obs.FFCostGateFrac relative.
func gate(rep, base Report, basePdes *PdesSweepReport, baseFFCost float64, path string) error {
	if base.RefsPerSec > 0 && rep.RefsPerSec < base.RefsPerSec*0.9 {
		return fmt.Errorf("refs_per_sec regressed more than 10%%: %.0f vs baseline %.0f (%s)",
			rep.RefsPerSec, base.RefsPerSec, path)
	}
	if rep.AllocsPerRef > base.AllocsPerRef {
		return fmt.Errorf("allocs_per_ref grew: %.6g vs baseline %.6g (%s)",
			rep.AllocsPerRef, base.AllocsPerRef, path)
	}
	if rep.PdesSweep != nil && basePdes != nil {
		if err := obs.GatePdesApply(applyByWorkers(basePdes.Points), applyByWorkers(rep.PdesSweep.Points)); err != nil {
			return fmt.Errorf("%w (%s)", err, path)
		}
	}
	if rep.SampleSweep != nil {
		if err := obs.GateFFCost(baseFFCost, rep.SampleSweep.FFCostRatio); err != nil {
			return fmt.Errorf("%w (%s)", err, path)
		}
	}
	fmt.Fprintf(os.Stderr, "[baseline ok: %.0f refs/sec vs %.0f, %.4g allocs/ref vs %.4g]\n",
		rep.RefsPerSec, base.RefsPerSec, rep.AllocsPerRef, base.AllocsPerRef)
	return nil
}

// applyByWorkers projects a sweep's points to the worker -> apply
// fraction map the obs gate consumes.
func applyByWorkers(pts []PdesPoint) map[int]float64 {
	m := make(map[int]float64, len(pts))
	for _, p := range pts {
		if p.ApplyFraction > 0 {
			m[p.Workers] = p.ApplyFraction
		}
	}
	return m
}
