package harness

import (
	"fmt"
	"math"
	"time"

	"consim/internal/core"
	"consim/internal/sim"
)

// Statistical equivalence of sampled and detailed simulation.
//
// A sampled run estimates the same per-VM metrics a detailed run
// measures exactly; the contract is that the estimate's error stays
// within the confidence interval the sampling engine itself reports.
// This file compares the two modes — per run (VM-level metrics) and per
// figure (table cells) — and turns the comparison into the pass/fail
// predicate the sample-accuracy CI job and cmd/bench -samplesweep gate
// on.

// VMDelta is one VM's sampled-vs-detailed deviation on the two metrics
// the sampling engine tracks for convergence.
type VMDelta struct {
	VM   int     `json:"vm"`
	Name string  `json:"name"`
	Miss float64 `json:"miss_rel_err"` // |sampled-full|/full LLC miss rate
	Cpt  float64 `json:"cpt_rel_err"`  // |sampled-full|/full cycles per transaction
}

// RunComparison is the result of running one configuration both ways.
type RunComparison struct {
	Full    core.Result
	Sampled core.Result
	Deltas  []VMDelta
	// MaxRelErr is the largest per-VM relative error over both metrics.
	MaxRelErr float64
	// Bound is the error budget the comparison is judged against:
	// 2 x max(CITarget, achieved CI) — twice the half-width, covering
	// the full-run estimator's own variance on top of the sampled one's.
	Bound float64
}

// Within reports whether every per-VM deviation is inside the bound.
func (c RunComparison) Within() bool { return c.MaxRelErr <= c.Bound }

// CompareSampledRun executes cfg fully detailed and again under sc, and
// reports the per-VM metric deviations. VMs with zero full-run
// references (never scheduled) are skipped.
func CompareSampledRun(cfg core.Config, sc core.SampleConfig) (RunComparison, error) {
	fullCfg := cfg
	fullCfg.Sample = core.SampleConfig{}
	sampCfg := cfg
	sampCfg.Sample = sc

	var out RunComparison
	for i, c := range []core.Config{fullCfg, sampCfg} {
		sys, err := core.NewSystem(c)
		if err != nil {
			return out, err
		}
		res, err := sys.Run()
		if err != nil {
			return out, err
		}
		if i == 0 {
			out.Full = res
		} else {
			out.Sampled = res
		}
	}
	if len(out.Full.VMs) != len(out.Sampled.VMs) {
		return out, fmt.Errorf("harness: VM count mismatch %d vs %d", len(out.Full.VMs), len(out.Sampled.VMs))
	}
	for v := range out.Full.VMs {
		f, s := out.Full.VMs[v], out.Sampled.VMs[v]
		if f.Stats.Refs == 0 {
			continue
		}
		d := VMDelta{
			VM:   f.VM,
			Name: f.Name,
			Miss: relErr(s.MissRate(), f.MissRate()),
			Cpt:  relErr(s.CyclesPerTx, f.CyclesPerTx),
		}
		out.Deltas = append(out.Deltas, d)
		out.MaxRelErr = math.Max(out.MaxRelErr, math.Max(d.Miss, d.Cpt))
	}
	out.Bound = sampleBound(out.Sampled.Config.Sample.CITarget, out.Sampled.Sample.AchievedRelCI)
	return out, nil
}

// relErr returns |got-want|/|want|; an exact match of a zero reference
// is 0, any deviation from zero is reported as 1 (100%).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// sampleBound is the declared error budget for a sampled estimate:
// twice the larger of the configured target and the achieved CI. The
// factor of two covers the detailed reference's own run-to-run variance
// (both sides estimate a stochastic workload's mean) and turns the 95%
// half-width into a bound deviations should essentially never exceed.
func sampleBound(target, achieved float64) float64 {
	b := math.Max(target, achieved)
	if b <= 0 || math.IsInf(b, 1) || math.IsNaN(b) {
		b = 1
	}
	return 2 * b
}

// FigureComparison is one figure run both ways.
type FigureComparison struct {
	ID string `json:"figure"`
	// FullSeconds / SampledSeconds are wall-clock times for building the
	// figure in each mode (including runs shared with earlier figures
	// only on first execution — the runners memoize identically).
	FullSeconds    float64 `json:"full_seconds"`
	SampledSeconds float64 `json:"sampled_seconds"`
	// MaxRelErr is the worst per-cell relative deviation, with small
	// cells judged against a floor of 5% of the table's largest |cell|
	// (a near-zero cell's relative error is noise, not signal).
	MaxRelErr float64 `json:"max_rel_err"`
	WorstCell string  `json:"worst_cell,omitempty"`
	// FFCost / FFCostRatio describe the sampled build's phase split: wall
	// and reference totals for detailed windows vs functional fast-forward
	// over the figure's sampled runs, and the resulting per-reference cost
	// ratio (Result.FFCostRatio aggregated over the figure; 0 when no run
	// sampled). Only sampled comparisons populate them.
	FFCost      *FFCost `json:"ff_cost,omitempty"`
	FFCostRatio float64 `json:"ff_cost_ratio,omitempty"`
}

// Speedup returns the figure's wall-clock ratio.
func (f FigureComparison) Speedup() float64 {
	if f.SampledSeconds == 0 {
		return 0
	}
	return f.FullSeconds / f.SampledSeconds
}

// cellFloorFrac scales a table's largest |cell| into the denominator
// floor for per-cell relative errors.
const cellFloorFrac = 0.05

// CompareTables returns the worst per-cell relative deviation between a
// detailed and a sampled rendering of the same figure, and the
// row/column label of the worst cell. Shapes must match.
func CompareTables(full, sampled *Table) (float64, string, error) {
	if len(full.Rows) != len(sampled.Rows) || len(full.Columns) != len(sampled.Columns) {
		return 0, "", fmt.Errorf("harness: table %s shape mismatch", full.ID)
	}
	floor := 0.0
	for _, r := range full.Rows {
		for _, v := range r.Values {
			floor = math.Max(floor, math.Abs(v))
		}
	}
	floor *= cellFloorFrac
	worst, worstCell := 0.0, ""
	for ri, fr := range full.Rows {
		sr := sampled.Rows[ri]
		if len(fr.Values) != len(sr.Values) {
			return 0, "", fmt.Errorf("harness: table %s row %q width mismatch", full.ID, fr.Label)
		}
		for ci := range fr.Values {
			den := math.Max(math.Abs(fr.Values[ci]), floor)
			if den == 0 {
				continue
			}
			if e := math.Abs(sr.Values[ci]-fr.Values[ci]) / den; e > worst {
				worst = e
				worstCell = fr.Label + "/" + full.Columns[ci]
			}
		}
	}
	return worst, worstCell, nil
}

// DefaultPdesBound is the error budget parallel (pdes) runs are judged
// against when the caller does not supply one: the worst per-VM
// relative deviation on the tracked metrics must stay below it. The
// parallel engine's error source is bounded cross-domain staleness (one
// window), not sampling variance, so the bound is a fixed engineering
// tolerance rather than a CI-derived quantity; measured deviations at
// the default window sit under half of it across the workload classes.
const DefaultPdesBound = 0.12

// CompareParallelRun executes cfg sequentially and again under the
// split-transaction parallel engine with the given worker count and
// window (0 = default), and reports the per-VM metric deviations
// against bound (<= 0 selects DefaultPdesBound). The comparison reuses
// RunComparison: Full holds the sequential run, Sampled the parallel
// one.
func CompareParallelRun(cfg core.Config, workers int, window sim.Cycle, bound float64) (RunComparison, error) {
	seqCfg := cfg
	seqCfg.Pdes, seqCfg.PdesWindow, seqCfg.PdesReplayWorkers = 0, 0, 0
	parCfg := cfg
	parCfg.Pdes, parCfg.PdesWindow = workers, window
	return comparePdesRuns(seqCfg, parCfg, bound)
}

// CompareShardedParallelRun executes cfg under the parallel engine
// twice — once with the serial barrier replay, once with the replay
// sharded across replayWorkers bank-group streams — and reports per-VM
// deviations against bound (<= 0 selects DefaultPdesBound). Sharding
// is a pure execution strategy, so MaxRelErr must come back exactly
// zero. Full holds the serial-replay run, Sampled the sharded one.
func CompareShardedParallelRun(cfg core.Config, workers, replayWorkers int, window sim.Cycle, bound float64) (RunComparison, error) {
	serCfg := cfg
	serCfg.Pdes, serCfg.PdesWindow, serCfg.PdesReplayWorkers = workers, window, 0
	shCfg := serCfg
	shCfg.PdesReplayWorkers = replayWorkers
	return comparePdesRuns(serCfg, shCfg, bound)
}

// comparePdesRuns executes base and alt and reports alt's per-VM metric
// deviations from base against bound (<= 0 selects DefaultPdesBound).
func comparePdesRuns(base, alt core.Config, bound float64) (RunComparison, error) {
	var out RunComparison
	for i, c := range []core.Config{base, alt} {
		sys, err := core.NewSystem(c)
		if err != nil {
			return out, err
		}
		res, err := sys.Run()
		if err != nil {
			return out, err
		}
		if i == 0 {
			out.Full = res
		} else {
			out.Sampled = res
		}
	}
	if len(out.Full.VMs) != len(out.Sampled.VMs) {
		return out, fmt.Errorf("harness: VM count mismatch %d vs %d", len(out.Full.VMs), len(out.Sampled.VMs))
	}
	for v := range out.Full.VMs {
		f, s := out.Full.VMs[v], out.Sampled.VMs[v]
		if f.Stats.Refs == 0 {
			continue
		}
		d := VMDelta{
			VM:   f.VM,
			Name: f.Name,
			Miss: relErr(s.MissRate(), f.MissRate()),
			Cpt:  relErr(s.CyclesPerTx, f.CyclesPerTx),
		}
		out.Deltas = append(out.Deltas, d)
		out.MaxRelErr = math.Max(out.MaxRelErr, math.Max(d.Miss, d.Cpt))
	}
	if bound <= 0 {
		bound = DefaultPdesBound
	}
	out.Bound = bound
	return out, nil
}

// CompareParallelFigures builds the given figures twice — one
// sequential runner, one with the parallel engine — and reports
// per-figure deviations, wall times and the bound cells are judged
// against (<= 0 selects DefaultPdesBound). Cell deviations use the same
// small-cell floor as the sampling comparison.
func CompareParallelFigures(opt Options, workers int, window sim.Cycle, bound float64, ids []string) ([]FigureComparison, float64, error) {
	seqOpt := opt
	seqOpt.Pdes, seqOpt.PdesWindow, seqOpt.PdesReplayWorkers = 0, 0, 0
	seqRun := NewRunner(seqOpt)
	parOpt := opt
	parOpt.Pdes, parOpt.PdesWindow = workers, window
	parRun := NewRunner(parOpt)

	out := make([]FigureComparison, 0, len(ids))
	for _, id := range ids {
		fc := FigureComparison{ID: id}
		t0 := time.Now()
		ft, err := seqRun.RunFigure(id)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		pt, err := parRun.RunFigure(id)
		if err != nil {
			return nil, 0, err
		}
		fc.FullSeconds, fc.SampledSeconds = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		fc.MaxRelErr, fc.WorstCell, err = CompareTables(ft, pt)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, fc)
	}
	if bound <= 0 {
		bound = DefaultPdesBound
	}
	return out, bound, nil
}

// CompareSampledFigures builds the given figures twice — one detailed
// runner, one sampled — and reports per-figure deviations, wall times
// and the declared bound. The two runners share nothing, so memoization
// inside each mode mirrors a real figure-suite invocation.
func CompareSampledFigures(opt Options, sc core.SampleConfig, ids []string) ([]FigureComparison, float64, error) {
	fullRun := NewRunner(opt)
	sampOpt := opt
	sampOpt.Sample = sc
	sampRun := NewRunner(sampOpt)

	out := make([]FigureComparison, 0, len(ids))
	for _, id := range ids {
		fc := FigureComparison{ID: id}
		t0 := time.Now()
		ft, err := fullRun.RunFigure(id)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		ffBase := sampRun.FFCostTotals()
		st, err := sampRun.RunFigure(id)
		if err != nil {
			return nil, 0, err
		}
		fc.FullSeconds, fc.SampledSeconds = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		// The figure's own sampled runs are the aggregate's growth since
		// the snapshot (memoized re-reads add nothing, matching wall time).
		if ff := sampRun.FFCostTotals().sub(ffBase); ff.SkippedRefs > 0 {
			fc.FFCost = &ff
			fc.FFCostRatio = ff.Ratio()
		}
		fc.MaxRelErr, fc.WorstCell, err = CompareTables(ft, st)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, fc)
	}
	bound := sampleBound(sc.CITarget, sampRun.WorstSampleRelCI())
	return out, bound, nil
}
