// Command ablate runs the design-choice ablation studies (directory
// cache size, memory controller count, router pipeline depth, over-commit
// timeslice) and prints their tables.
//
//	ablate                 # all studies at 1/4 scale
//	ablate -exp A1 -scale 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"consim"
	"consim/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "", "comma-separated ablation IDs (default: all of A1..A6)")
		scale    = flag.Int("scale", 4, "divide cache capacities and footprints")
		warm     = flag.Uint64("warm", 300_000, "warm-up references per core")
		meas     = flag.Uint64("meas", 500_000, "measured references per core")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), consim.ParallelFlagUsage)
	)
	var eflags consim.EngineFlags
	eflags.Register(flag.CommandLine)
	var ocli obs.CLI
	ocli.Register(flag.CommandLine)
	flag.Parse()
	if err := eflags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}

	o, ostop, err := ocli.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}
	if o != nil {
		o.Parallel = *parallel
	}

	ids := consim.AblationIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	opt := consim.RunnerOptions{
		Scale: *scale, WarmupRefs: *warm, MeasureRefs: *meas, Seed: *seed,
		Parallel: *parallel, Obs: o,
	}
	eflags.ApplyRunner(&opt)
	r := consim.NewRunner(opt)
	for _, id := range ids {
		start := time.Now()
		t, err := r.RunAblation(strings.TrimSpace(id))
		if err != nil {
			ostop() //nolint:errcheck // the primary error wins
			fmt.Fprintln(os.Stderr, "ablate:", err)
			os.Exit(1)
		}
		fmt.Println(t.Text())
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	if err := ostop(); err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}
}
