// Package consim is a simulator for studying server-consolidation
// workloads on multi-core designs, reproducing "An Evaluation of Server
// Consolidation Workloads for Multi-Core Designs" (Enright Jerger,
// Vantrease, Lipasti — IISWC 2007).
//
// It models a 16-core CMP (Table III of the paper): per-core L0/L1
// caches, a 16MB last-level cache divided into private, shared-N-way or
// fully-shared bank groups, an SGI-Origin-style directory protocol with
// per-node directory caches, a 2-D mesh interconnect, and queued memory
// controllers. Four statistical workload models stand in for the paper's
// commercial workloads (TPC-W, SPECjbb, TPC-H, SPECweb), calibrated to
// its Table II sharing statistics. A hypervisor layer places each
// 4-thread virtual machine's threads on cores under round-robin,
// affinity, hybrid or random policies.
//
// Quick start:
//
//	cfg := consim.DefaultConfig(consim.WorkloadSpecs()[consim.TPCH])
//	cfg.GroupSize = 4 // shared-4-way LLC
//	res, err := consim.Run(cfg)
//
// The harness sub-API (Mixes, NewRunner, figure runners) regenerates
// every table and figure of the paper's evaluation; see cmd/tables.
package consim

import (
	"flag"
	"fmt"
	"runtime"
	"sync"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/sched"
	"consim/internal/sim"
	"consim/internal/workload"
)

// Core simulator types.
type (
	// Cycle is a simulated-time cycle count (Config.PdesWindow,
	// Result.Cycles).
	Cycle = sim.Cycle
	// Config describes one simulation run; see DefaultConfig.
	Config = core.Config
	// System is a configured simulation instance.
	System = core.System
	// Result is a completed run's metrics.
	Result = core.Result
	// VMResult is one virtual machine's measurements.
	VMResult = core.VMResult
	// Snapshot captures LLC replication and occupancy state.
	Snapshot = core.Snapshot
	// SampleConfig enables interval-sampled simulation (Config.Sample):
	// detailed windows, functional fast-forward, CI-convergence early
	// stop. The zero value keeps runs fully detailed and bit-identical.
	SampleConfig = core.SampleConfig
	// SampleStats reports a sampled run's coverage and achieved
	// confidence interval (Result.Sample); all-zero for detailed runs.
	SampleStats = core.SampleStats
	// PdesStats reports the split-transaction parallel engine's activity
	// (Result.Pdes); all-zero for sequential runs.
	PdesStats = core.PdesStats
)

// ParallelFlagUsage is the canonical -parallel help string, shared by
// every command so the flag reads identically across the toolset.
const ParallelFlagUsage = "independent simulations to keep in flight at once (across-run parallelism; never changes results)"

// EngineFlags is the engine flag set shared by every consim command:
// -sample with its four companions selects interval-sampled simulation,
// -pdes with -pdes-window and -pdes-replay-workers the split-transaction
// parallel engine; neither set means the sequential engine. Both
// engines trade exactness for speed: -sample estimates metrics from
// detailed windows separated by functional fast-forward (achieved
// confidence interval recorded in manifests), -pdes runs active cores
// in parallel domains with windowed cross-domain coherence (deviations
// gated by the equivalence harness, deterministic per seed).
//
// Like obs.CLI, a command registers the set once, validates it once
// right after parsing, and applies it to each Config or to its
// runner's options:
//
//	var ef consim.EngineFlags
//	ef.Register(flag.CommandLine)
//	flag.Parse()
//	if err := ef.Validate(); err != nil { ... }
//	ef.Apply(&cfg) // or ef.ApplyRunner(&opt)
type EngineFlags struct {
	Sample            SampleConfig
	Pdes              int
	PdesWindow        uint64
	PdesReplayWorkers int
}

// Register installs the engine flags on fs.
func (ef *EngineFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&ef.Sample.WindowRefs, "sample", 0, "detailed-window length in per-core references; >0 enables interval-sampled simulation (approximate: metrics become CI-bounded estimates)")
	fs.IntVar(&ef.Sample.FFRatio, "sample-ratio", 0, "fast-forward length between windows as a multiple of -sample (default 4)")
	fs.Float64Var(&ef.Sample.CITarget, "sample-ci", 0, "stop once every per-VM metric's relative 95% CI half-width reaches this (default 0.05)")
	fs.IntVar(&ef.Sample.MinWindows, "sample-min-windows", 0, "fewest windows convergence may stop at (default 4)")
	fs.Uint64Var(&ef.Sample.MaxRefs, "sample-max-refs", 0, "per-core detailed-reference budget; stop when reached even unconverged (default: the measurement budget)")
	fs.IntVar(&ef.Pdes, "pdes", 0, "split-transaction parallel engine domains inside each simulation: 0/1 = sequential engine, N>1 partitions active cores into N windowed domains (approximate: deviations gated by the equivalence harness)")
	fs.Uint64Var(&ef.PdesWindow, "pdes-window", 0, "parallel engine window width in cycles (default 16384); wider windows amortize barriers at the price of staler cross-domain coherence")
	fs.IntVar(&ef.PdesReplayWorkers, "pdes-replay-workers", 0, "parallel workers for the barrier replay (requires -pdes > 1): 0/1 = serial replay, N>1 shards the op log by LLC bank group; results are bit-identical at any value")
}

// Validate rejects inconsistent combinations: negative engine counts,
// companion flags without their engine, and both engines at once.
// Every command calls it right after parsing, so the user sees one
// clear message instead of a per-config validation error or, under the
// runner's quiet compatibility filter, a silently sequential run.
func (ef *EngineFlags) Validate() error {
	sc := ef.Sample
	switch {
	case ef.Pdes < 0:
		return fmt.Errorf("-pdes must not be negative")
	case ef.PdesReplayWorkers < 0:
		return fmt.Errorf("-pdes-replay-workers must not be negative")
	case ef.Pdes <= 1 && ef.PdesWindow != 0:
		return fmt.Errorf("-pdes-window requires -pdes > 1")
	case ef.Pdes <= 1 && ef.PdesReplayWorkers != 0:
		return fmt.Errorf("-pdes-replay-workers requires -pdes > 1")
	case ef.Pdes > 1 && sc.Enabled():
		return fmt.Errorf("-pdes and -sample are mutually exclusive engines")
	case !sc.Enabled() && sc != (SampleConfig{}):
		return fmt.Errorf("-sample-ratio, -sample-ci, -sample-min-windows and -sample-max-refs require -sample > 0")
	}
	return nil
}

// Apply writes the validated engine selection into one run's Config.
func (ef *EngineFlags) Apply(cfg *Config) {
	cfg.Sample = ef.Sample
	cfg.Pdes = ef.Pdes
	cfg.PdesWindow = sim.Cycle(ef.PdesWindow)
	cfg.PdesReplayWorkers = ef.PdesReplayWorkers
}

// ApplyRunner writes the validated engine selection into a runner's
// options; the runner applies it to every compatible simulation.
func (ef *EngineFlags) ApplyRunner(opt *RunnerOptions) {
	opt.Sample = ef.Sample
	opt.Pdes = ef.Pdes
	opt.PdesWindow = sim.Cycle(ef.PdesWindow)
	opt.PdesReplayWorkers = ef.PdesReplayWorkers
}

// Workload modeling types.
type (
	// WorkloadClass identifies one of the paper's four workloads.
	WorkloadClass = workload.Class
	// WorkloadSpec parameterizes a workload model.
	WorkloadSpec = workload.Spec
	// Phase modulates a workload's reference mix for a stretch of
	// execution (§VII phase analysis).
	Phase = workload.Phase
)

// TwoPhase builds the classic scan/update phase alternation for
// phase-alignment studies; each phase lasts refs references per thread.
func TwoPhase(refs uint64) []Phase { return workload.TwoPhase(refs) }

// Scheduling types.
type (
	// Policy is a hypervisor thread-placement policy.
	Policy = sched.Policy
)

// Experiment harness types.
type (
	// Mix is a Table IV workload combination.
	Mix = harness.Mix
	// Runner executes and memoizes experiment simulations.
	Runner = harness.Runner
	// RunnerOptions scale an experiment suite.
	RunnerOptions = harness.Options
	// FigureTable is a rendered figure/table result.
	FigureTable = harness.Table
	// FigureComparison is one figure built detailed and sampled, with
	// wall times and the worst per-cell deviation.
	FigureComparison = harness.FigureComparison
	// FFCost aggregates a sampled run set's phase cost split (detailed
	// windows vs functional fast-forward); Ratio is the fast-forward cost
	// per skipped reference relative to a detailed reference.
	FFCost = harness.FFCost
	// RunComparison is one configuration run detailed and sampled, with
	// per-VM metric deviations against the CI-derived bound.
	RunComparison = harness.RunComparison
)

// The four commercial workloads.
const (
	TPCW    = workload.TPCW
	SPECjbb = workload.SPECjbb
	TPCH    = workload.TPCH
	SPECweb = workload.SPECweb
)

// The four scheduling policies of §III-D.
const (
	RoundRobin = sched.RoundRobin
	Affinity   = sched.Affinity
	RRAffinity = sched.RRAffinity
	Random     = sched.Random
)

// DefaultConfig returns the paper's 16-core machine configured to run the
// given workloads (one VM of four threads each).
func DefaultConfig(specs ...WorkloadSpec) Config {
	return core.DefaultConfig(specs...)
}

// NewSystem builds a simulation from cfg.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Run builds and executes a simulation in one call.
func Run(cfg Config) (Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}

// RunConfigs builds and executes independent simulations with up to
// parallel in flight at once (parallel <= 0 means runtime.GOMAXPROCS)
// and returns their results in input order. Each simulation is
// single-threaded and deterministic given its seed, so parallelism
// affects wall time only, never results. On error, the lowest-index
// failure is returned.
func RunConfigs(cfgs []Config, parallel int) ([]Result, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	wg.Add(len(cfgs))
	for i := range cfgs {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// WorkloadSpecs returns the calibrated models of the paper's four
// workloads, indexed by WorkloadClass.
func WorkloadSpecs() [workload.NumClasses]WorkloadSpec { return workload.Specs() }

// WorkloadByName resolves a workload by its paper name ("TPC-W",
// "SPECjbb", "TPC-H", "SPECweb").
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// PolicyByName resolves a policy by name ("rr", "affinity", "aff-rr",
// "random").
func PolicyByName(name string) (Policy, error) { return sched.ByName(name) }

// AllPolicies returns the four policies in the paper's order.
func AllPolicies() []Policy { return sched.All() }

// HeterogeneousMixes returns Table IV's Mixes 1-9.
func HeterogeneousMixes() []Mix { return harness.HeterogeneousMixes() }

// HomogeneousMixes returns Table IV's Mixes A-D.
func HomogeneousMixes() []Mix { return harness.HomogeneousMixes() }

// MixByID resolves a Table IV mix by label ("1".."9", "A".."D").
func MixByID(id string) (Mix, error) { return harness.MixByID(id) }

// NewRunner returns an experiment runner that memoizes simulations
// across figure regenerations. Memoization is single-flight and all
// execution shares one worker pool of RunnerOptions.Parallel slots
// (0 defaults to runtime.GOMAXPROCS); Runner.RunFigures schedules a
// whole figure suite through that one deduplicated queue.
func NewRunner(opt RunnerOptions) *Runner { return harness.NewRunner(opt) }

// DefaultRunnerOptions returns the full-scale experiment settings used
// for EXPERIMENTS.md.
func DefaultRunnerOptions() RunnerOptions { return harness.DefaultOptions() }

// FigureIDs lists the reproducible artifacts (T2, F2..F13).
func FigureIDs() []string { return harness.FigureIDs() }

// AblationIDs lists the design-choice ablation studies (A1..A6).
func AblationIDs() []string { return harness.AblationIDs() }

// CompareSampledRun executes cfg fully detailed and again interval-
// sampled under sc, reporting per-VM metric deviations against the
// sampled run's CI-derived error bound.
func CompareSampledRun(cfg Config, sc SampleConfig) (RunComparison, error) {
	return harness.CompareSampledRun(cfg, sc)
}

// CompareSampledFigures builds the given figures twice — one detailed
// runner, one sampled — and returns per-figure comparisons plus the
// declared error bound (2 x the worse of the CI target and the worst
// achieved CI across the sampled runs).
func CompareSampledFigures(opt RunnerOptions, sc SampleConfig, ids []string) ([]FigureComparison, float64, error) {
	return harness.CompareSampledFigures(opt, sc, ids)
}

// DefaultPdesBound is the fixed error budget split-transaction parallel
// runs are judged against (harness.DefaultPdesBound).
const DefaultPdesBound = harness.DefaultPdesBound

// CompareParallelRun executes cfg sequentially and again under the
// split-transaction parallel engine (workers domains, window cycles; 0
// selects the default window), reporting per-VM metric deviations
// against bound (<= 0 selects DefaultPdesBound).
func CompareParallelRun(cfg Config, workers int, window sim.Cycle, bound float64) (RunComparison, error) {
	return harness.CompareParallelRun(cfg, workers, window, bound)
}

// CompareParallelFigures builds the given figures twice — one
// sequential runner, one under the parallel engine — and returns
// per-figure comparisons plus the bound cells were judged against.
func CompareParallelFigures(opt RunnerOptions, workers int, window sim.Cycle, bound float64, ids []string) ([]FigureComparison, float64, error) {
	return harness.CompareParallelFigures(opt, workers, window, bound, ids)
}

// CompareShardedParallelRun executes cfg under the parallel engine with
// the serial barrier replay and again with the replay sharded across
// replayWorkers bank-group streams, reporting per-VM metric deviations
// against bound (<= 0 selects DefaultPdesBound). The deviation must be
// exactly zero — replay sharding never changes results.
func CompareShardedParallelRun(cfg Config, workers, replayWorkers int, window sim.Cycle, bound float64) (RunComparison, error) {
	return harness.CompareShardedParallelRun(cfg, workers, replayWorkers, window, bound)
}
