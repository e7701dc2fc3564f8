package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"consim/internal/core"
	"consim/internal/vm"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so summarize must sort
	}
	return xs
}

func TestSummarizePercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		median     float64
		pct, value float64
	}{
		{1, 1, 0, 0},
		{4, 2.5, 0, 0},
		{19, 10, 0, 0},
		{100, 50.5, 90, 90},    // 10 samples above p90
		{999, 500, 90, 900},    // p99 would leave 9 beyond
		{1000, 500.5, 99, 990}, // p99.9 would leave 1 beyond
		{10000, 5000.5, 99.9, 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.Median != c.median || s.Pct != c.pct || s.PctVal != c.value {
			t.Errorf("n=%d: got %+v, want median %g p%g=%g", c.n, s, c.median, c.pct, c.value)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty: got %+v", s)
	}
}

func TestSummaryStringStatesSampleCount(t *testing.T) {
	if got := summarize(seq(3)).String(); !strings.Contains(got, "n=3") || !strings.Contains(got, "too few samples") {
		t.Errorf("short summary %q", got)
	}
	if got := summarize(seq(100)).String(); !strings.Contains(got, "p90=90") || !strings.Contains(got, "n=100") {
		t.Errorf("long summary %q", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Fatal("empty tally must read 0")
	}
	tl.record(nil)
	tl.record([]error{errors.New("a"), errors.New("b")})
	tl.record(nil)
	tl.record([]error{errors.New("c")})
	if tl.attempted != 4 || tl.failed != 2 || tl.frac() != 0.5 {
		t.Errorf("got attempted %d failed %d frac %g", tl.attempted, tl.failed, tl.frac())
	}
	if strings.Join(tl.reasons, ",") != "a,b,c" {
		t.Errorf("reasons %v", tl.reasons)
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.record([]error{fmt.Errorf("r%d", i)})
	}
	if len(tl.reasons) != maxReasons {
		t.Errorf("kept %d reasons, want %d", len(tl.reasons), maxReasons)
	}
}

func result(refs, priv, llc, c2c uint64) core.Result {
	return core.Result{VMs: []core.VMResult{{Stats: vm.Stats{Refs: refs, PrivMisses: priv, LLCMisses: llc, C2CClean: c2c}}}}
}

func TestDigestMismatchDetected(t *testing.T) {
	a, b := result(100, 10, 5, 1), result(100, 10, 5, 1)
	if digestResults(a) != digestResults(b) {
		t.Fatal("identical results digest differently")
	}
	b.VMs[0].Stats.LLCMisses++
	if digestResults(a) == digestResults(b) {
		t.Fatal("digest ignores an LLC miss")
	}
	b = result(100, 10, 5, 1)
	b.WallSeconds = 7 // host provenance, not a simulated statistic
	if digestResults(a) != digestResults(b) {
		t.Fatal("digest depends on wall time")
	}

	var dc digestCheck
	for i := 0; i < 3; i++ {
		if err := dc.check(digestResults(a)); err != nil {
			t.Fatalf("repetition %d: %v", i, err)
		}
	}
	if err := dc.check(digestResults(result(100, 10, 6, 1))); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("mismatch not reported: %v", err)
	}
}

func TestConservation(t *testing.T) {
	if errs := conservation("ok", result(100, 10, 5, 10)); len(errs) != 0 {
		t.Fatalf("valid counts rejected: %v", errs)
	}
	for name, r := range map[string]core.Result{
		"llc > priv":  result(100, 10, 11, 0),
		"priv > refs": result(100, 101, 5, 0),
		"c2c > priv":  result(100, 10, 5, 11),
		"no refs":     result(0, 0, 0, 0),
	} {
		if errs := conservation(name, r); len(errs) == 0 {
			t.Errorf("%s: not detected", name)
		}
	}
}

func TestMaxRelErr(t *testing.T) {
	ref := result(1000, 100, 50, 0)
	ref.VMs[0].CyclesPerTx = 200
	got := result(1000, 100, 55, 0)
	got.VMs[0].CyclesPerTx = 210
	if e := maxRelErr(got, ref); e < 0.0999 || e > 0.1001 {
		t.Errorf("max rel err %g, want 0.1 (miss rate 0.055 vs 0.05)", e)
	}
}
