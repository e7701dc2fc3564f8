// Command trace records and replays workload reference traces — the
// checkpoint workflow: capture a workload's transactions once, then run
// the same transactions through any machine configuration.
//
//	trace record -workload TPC-H -out tpch.trc -refs 200000 -scale 8
//	trace info tpch.trc
//	trace replay tpch.trc -group 4 -policy affinity
package main

import (
	"flag"
	"fmt"
	"os"

	"consim"
	"consim/internal/core"
	"consim/internal/obs"
	"consim/internal/trace"
	"consim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: trace {record|info|replay} [flags]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "TPC-H", "workload to capture")
	out := fs.String("out", "workload.trc", "output file")
	refs := fs.Uint64("refs", 200_000, "references per thread")
	threads := fs.Int("threads", 4, "threads")
	scale := fs.Int("scale", 8, "footprint scale divisor")
	seed := fs.Uint64("seed", 42, "generator seed")
	fs.Parse(args)

	spec, err := workload.ByName(*name)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(spec.Scaled(*scale), *threads, *seed)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := trace.Capture(f, gen, *threads, *refs)
	if err != nil {
		return err
	}
	fmt.Printf("captured %d records (%d threads x %d refs) of %s at scale 1/%d to %s\n",
		h.Records, *threads, *refs, spec.Name, *scale, *out)
	return f.Close()
}

func openTrace(path string) (*trace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.NewReader(f)
}

func info(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("info: missing trace file")
	}
	rd, err := openTrace(args[0])
	if err != nil {
		return err
	}
	h := rd.Header()
	fmt.Printf("workload:  %s\nthreads:   %d\nrecords:   %d\nfootprint: %d blocks (%.1f MB)\ntx size:   %d refs\n",
		h.Spec.Name, h.Threads, h.Records, h.Footprint, float64(h.Footprint*64)/(1<<20), h.Spec.RefsPerTx)
	// Quick mix census over one pass.
	writes := uint64(0)
	for t := 0; t < h.Threads; t++ {
		n := h.Records / uint64(h.Threads)
		for i := uint64(0); i < n; i++ {
			if rd.Next(t).Write {
				writes++
			}
		}
	}
	fmt.Printf("writes:    %.1f%%\n", 100*float64(writes)/float64(h.Records))
	return nil
}

func replay(args []string) (err error) {
	if len(args) < 1 {
		return fmt.Errorf("replay: missing trace file")
	}
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	group := fs.Int("group", 4, "cores per LLC group")
	policy := fs.String("policy", "affinity", "scheduling policy")
	warm := fs.Uint64("warm", 50_000, "warm-up references per core")
	meas := fs.Uint64("meas", 100_000, "measured references per core")
	var eflags consim.EngineFlags
	eflags.Register(fs)
	var ocli obs.CLI
	ocli.Register(fs)
	fs.Parse(args[1:])
	if err := eflags.Validate(); err != nil {
		return err
	}

	o, ostop, oerr := ocli.Start(os.Stderr)
	if oerr != nil {
		return oerr
	}
	defer func() {
		if cerr := ostop(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	rd, err := openTrace(args[0])
	if err != nil {
		return err
	}
	pol, err := consim.PolicyByName(*policy)
	if err != nil {
		return err
	}
	cfg := consim.DefaultConfig(rd.Spec())
	cfg.GroupSize = *group
	cfg.Policy = pol
	cfg.ThreadsPerVM = rd.Header().Threads
	cfg.WarmupRefs = *warm
	cfg.MeasureRefs = *meas
	// Replay always uses a trace source, which the parallel engine cannot
	// run; Config validation produces the descriptive refusal.
	eflags.Apply(&cfg)
	cfg.Sources = []workload.Source{rd}
	cfg.Obs = o.Hooks()

	res, err := consim.Run(cfg)
	if err != nil {
		return err
	}
	if o != nil && o.Man != nil {
		if err := o.Man.Write(core.ManifestFor(cfg, res, 1)); err != nil {
			return err
		}
	}
	v := res.VMs[0]
	fmt.Printf("replayed %s on %s/%s: cyc/tx=%.0f missRate=%.4f missLat=%.1f c2c=%.3f (loops t0=%d)\n",
		v.Name, cfg.SharingName(), cfg.Policy,
		v.CyclesPerTx, v.MissRate(), v.AvgMissLatency(), v.Stats.C2CFraction(), rd.Loops(0))
	if sa := res.Sample; sa.Windows > 0 {
		fmt.Printf("sampled: %d windows, %d refs/core detailed, %d fast-forwarded (%s; rel 95%% CI %.3f)\n",
			sa.Windows, sa.DetailedRefs, sa.SkippedRefs, sa.StopReason, sa.AchievedRelCI)
	}
	return nil
}
