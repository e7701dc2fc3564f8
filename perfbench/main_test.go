package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"consim/internal/core"
	"consim/internal/obs"
)

// fakeBench replays scripted repetitions so the measurement loop's
// failure counting can be checked without simulating.
type fakeBench struct {
	reps []repOut
	i    int
}

func (f *fakeBench) prepare(*spanLog) error  { return nil }
func (f *fakeBench) setup() (float64, error) { return 0.001, nil }
func (f *fakeBench) seqConfig() core.Config  { return core.Config{} }
func (f *fakeBench) rep(*obs.Observer, *spanLog) repOut {
	out := f.reps[f.i%len(f.reps)]
	f.i++
	return out
}

func okRep(digest uint64) repOut {
	return repOut{wall: 1, refs: 1000, allocs: 10, digest: digest, results: []core.Result{result(1000, 10, 5, 1)}}
}

func TestMeasureCountsFailedRepetitions(t *testing.T) {
	bad := okRep(1)
	bad.errs = []error{errors.New("coherence invariant violated")}
	f := &fakeBench{reps: []repOut{okRep(1), bad, okRep(1), okRep(1)}}
	rec, err := measure(io.Discard, f, "fake", 1, 1e-9, false, "")
	if err != nil {
		t.Fatal(err)
	}
	// A tiny time budget still measures minUntraced repetitions.
	if rec.Attempted != minUntraced || rec.Failed != 1 {
		t.Fatalf("failed repetition: attempted %d failed %d", rec.Attempted, rec.Failed)
	}
	f.i = 2
	rec, err = measure(io.Discard, f, "fake", 1, 1e-9, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempted != minUntraced || rec.Failed != 0 {
		t.Fatalf("attempted %d failed %d", rec.Attempted, rec.Failed)
	}
}

func TestMeasureFailsOnDigestMismatch(t *testing.T) {
	f := &fakeBench{reps: []repOut{okRep(7), okRep(7), okRep(8)}}
	var out bytes.Buffer
	rec, err := measure(&out, f, "fake", 1, 0.0005, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempted < 3 {
		t.Skipf("only %d repetitions ran in the time budget", rec.Attempted)
	}
	if rec.Failed == 0 || !strings.Contains(out.String(), "digest mismatch") {
		t.Fatalf("attempted %d failed %d, output:\n%s", rec.Attempted, rec.Failed, out.String())
	}
	if got := rec.Metrics["wall_s"]; got.Value != 1 || got.Unit != "s" {
		t.Errorf("wall_s %+v", got)
	}
}

func TestMeasureReportsFastestRepetition(t *testing.T) {
	var reps []repOut
	for _, wall := range []float64{3, 1, 2} {
		r := okRep(1)
		r.wall = wall
		reps = append(reps, r)
	}
	f := &fakeBench{reps: reps}
	rec, err := measure(io.Discard, f, "fake", 1, 1e-9, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempted != minUntraced {
		t.Fatalf("attempted %d", rec.Attempted)
	}
	if got := rec.Metrics["wall_s"].Value; got != 1 {
		t.Errorf("wall_s %g, want the fastest repetition's 1", got)
	}
	if got := rec.Metrics["refs_per_s"].Value; got != 1000 {
		t.Errorf("refs_per_s %g, want 1000 refs over the fastest 1 s", got)
	}
	if s := rec.Summaries["wall_s"]; s.N != 2 || s.Median != 2 {
		t.Errorf("wall_s summary %+v, want median 2 over n=2", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog("t")
	l.on = true
	l.spans = []span{
		{ID: 1, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "figure", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "figure", StartNs: 50, EndNs: 90},
	}
	got := l.aggregate()
	want := []spanAgg{{"run", 1, 100, 30}, {"figure", 2, 70, 70}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("aggregate %+v, want %+v", got, want)
	}
	end := l.begin("outer")
	inner := l.begin("inner")
	inner()
	end()
	if got := l.spans[4]; got.Parent != l.spans[3].ID || got.Trace != "t" {
		t.Errorf("inner span %+v not parented to outer %+v", got, l.spans[3])
	}
	off := newSpanLog("t")
	off.begin("x")()
	if len(off.spans) != 0 {
		t.Error("disabled log recorded a span")
	}
}
