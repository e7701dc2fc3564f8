package consim_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"consim"
)

// TestPublicAPIQuickstart exercises the facade exactly as README's
// quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	specs := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(specs[consim.TPCH])
	cfg.GroupSize = 4
	cfg.Policy = consim.Affinity
	cfg.Scale = 32
	cfg.WarmupRefs = 20_000
	cfg.MeasureRefs = 40_000

	res, err := consim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VMs) != 1 || res.VMs[0].Stats.Refs == 0 {
		t.Fatalf("degenerate result: %+v", res.VMs)
	}
}

func TestPublicAPIMixes(t *testing.T) {
	if len(consim.HeterogeneousMixes()) != 9 || len(consim.HomogeneousMixes()) != 4 {
		t.Error("Table IV mix counts wrong")
	}
	mix, err := consim.MixByID("7")
	if err != nil {
		t.Fatal(err)
	}
	if mix.Name() != "SPECjbb(3)+TPC-W(1)" {
		t.Errorf("Mix 7 = %s", mix.Name())
	}
}

func TestPublicAPILookups(t *testing.T) {
	if _, err := consim.WorkloadByName("TPC-W"); err != nil {
		t.Error(err)
	}
	if _, err := consim.PolicyByName("aff-rr"); err != nil {
		t.Error(err)
	}
	if len(consim.AllPolicies()) != 4 {
		t.Error("policy count wrong")
	}
	if len(consim.FigureIDs()) != 13 {
		t.Error("artifact count wrong")
	}
}

func TestPublicAPIRunnerFigure(t *testing.T) {
	r := consim.NewRunner(consim.RunnerOptions{
		Scale:       64,
		WarmupRefs:  10_000,
		MeasureRefs: 20_000,
	})
	tb, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("Table II rows = %d", len(tb.Rows))
	}
	if tb.Text() == "" || tb.Markdown() == "" || tb.CSV() == "" {
		t.Error("formatting empty")
	}
}

func TestSystemAssignmentExposed(t *testing.T) {
	specs := consim.WorkloadSpecs()
	cfg := consim.DefaultConfig(specs[consim.TPCW], specs[consim.SPECjbb])
	cfg.Scale = 64
	sys, err := consim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Assignment()) != 2 {
		t.Error("assignment shape wrong")
	}
}

func TestPublicAPIPhases(t *testing.T) {
	phases := consim.TwoPhase(1000)
	if len(phases) != 2 {
		t.Fatalf("TwoPhase returned %d phases", len(phases))
	}
	spec := consim.WorkloadSpecs()[consim.TPCH].WithPhases(phases...)
	if len(spec.Phases) != 2 {
		t.Error("WithPhases did not attach phases")
	}
	if len(consim.AblationIDs()) != 6 {
		t.Error("ablation IDs wrong")
	}
}

// parseEngineFlags registers the engine flag set on a fresh FlagSet the
// way every command does and parses args into it.
func parseEngineFlags(t *testing.T, args []string) *consim.EngineFlags {
	t.Helper()
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var ef consim.EngineFlags
	ef.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return &ef
}

// engineFields is the engine selection as one comparable value.
type engineFields struct {
	Sample            consim.SampleConfig
	Pdes              int
	PdesWindow        consim.Cycle
	PdesReplayWorkers int
}

// TestEngineFlagsApply pins the one-flag-set contract: an argument list
// yields the same engine fields whether a command applies it to one
// run's Config (consim, calibrate, trace replay) or to RunnerOptions
// (tables, ablate), so no command drops a flag another honours.
func TestEngineFlagsApply(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want engineFields
	}{
		{nil, engineFields{}},
		{[]string{"-sample", "5000"}, engineFields{Sample: consim.SampleConfig{WindowRefs: 5000}}},
		{[]string{"-sample", "5000", "-sample-ratio", "3", "-sample-ci", "0.1", "-sample-min-windows", "5", "-sample-max-refs", "40000"},
			engineFields{Sample: consim.SampleConfig{WindowRefs: 5000, FFRatio: 3, CITarget: 0.1, MinWindows: 5, MaxRefs: 40000}}},
		{[]string{"-pdes", "1"}, engineFields{Pdes: 1}},
		{[]string{"-pdes", "2"}, engineFields{Pdes: 2}},
		{[]string{"-pdes", "2", "-pdes-replay-workers", "2"}, engineFields{Pdes: 2, PdesReplayWorkers: 2}},
		{[]string{"-pdes", "4", "-pdes-window", "8192", "-pdes-replay-workers", "4"},
			engineFields{Pdes: 4, PdesWindow: 8192, PdesReplayWorkers: 4}},
	} {
		ef := parseEngineFlags(t, tc.args)
		if err := ef.Validate(); err != nil {
			t.Errorf("%v: valid flags refused: %v", tc.args, err)
			continue
		}
		var cfg consim.Config
		ef.Apply(&cfg)
		var opt consim.RunnerOptions
		ef.ApplyRunner(&opt)
		gotCfg := engineFields{cfg.Sample, cfg.Pdes, cfg.PdesWindow, cfg.PdesReplayWorkers}
		gotOpt := engineFields{opt.Sample, opt.Pdes, opt.PdesWindow, opt.PdesReplayWorkers}
		if gotCfg != tc.want {
			t.Errorf("%v: Config engine fields = %+v, want %+v", tc.args, gotCfg, tc.want)
		}
		if gotOpt != tc.want {
			t.Errorf("%v: RunnerOptions engine fields = %+v, want %+v", tc.args, gotOpt, tc.want)
		}
	}
}

// TestEngineFlagsValidate checks every combination the flag set refuses
// right after parsing, in every command alike: companion flags without
// their engine, both engines at once, and negative counts.
func TestEngineFlagsValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pdes-window", "4096"}, "-pdes-window requires -pdes > 1"},
		{[]string{"-pdes", "1", "-pdes-window", "4096"}, "-pdes-window requires -pdes > 1"},
		{[]string{"-pdes-replay-workers", "2"}, "-pdes-replay-workers requires -pdes > 1"},
		{[]string{"-pdes", "1", "-pdes-replay-workers", "2"}, "-pdes-replay-workers requires -pdes > 1"},
		{[]string{"-pdes", "2", "-sample", "5000"}, "-pdes and -sample are mutually exclusive engines"},
		{[]string{"-sample-ratio", "3"}, "require -sample > 0"},
		{[]string{"-sample-ci", "0.1"}, "require -sample > 0"},
		{[]string{"-sample-min-windows", "5"}, "require -sample > 0"},
		{[]string{"-sample-max-refs", "40000"}, "require -sample > 0"},
		{[]string{"-pdes", "-2"}, "-pdes must not be negative"},
		{[]string{"-pdes", "2", "-pdes-replay-workers", "-1"}, "-pdes-replay-workers must not be negative"},
	} {
		err := parseEngineFlags(t, tc.args).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: Validate() = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
