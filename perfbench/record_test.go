package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord() record {
	return record{
		Workload: "mix_seq",
		Seed:     3,
		Fingerprint: fingerprint{
			CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "aaa",
		},
		Digest:    "0123456789abcdef",
		Attempted: 3,
		Metrics:   map[string]metric{"wall_s": {5, "s"}},
	}
}

func TestCompareRefusesHostMismatch(t *testing.T) {
	for name, edit := range map[string]func(*fingerprint){
		"cpu_model":  func(f *fingerprint) { f.CPUModel = "other" },
		"num_cpu":    func(f *fingerprint) { f.NumCPU = 4 },
		"gomaxprocs": func(f *fingerprint) { f.GOMAXPROCS = 1 },
		"go_version": func(f *fingerprint) { f.GoVersion = "go1.23.0" },
		"pgo":        func(f *fingerprint) { f.PGO = true },
	} {
		base, head := testRecord(), testRecord()
		edit(&head.Fingerprint)
		err := compareRecords(io.Discard, base, head)
		if err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v, want a refusal naming the field", name, err)
		}
	}
}

func TestCompareAcceptsOtherCommit(t *testing.T) {
	base, head := testRecord(), testRecord()
	head.Fingerprint.Commit = "bbb"
	head.Metrics["wall_s"] = metric{4, "s"}
	var out bytes.Buffer
	if err := compareRecords(&out, base, head); err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	if !strings.Contains(out.String(), "aaa -> bbb") || !strings.Contains(out.String(), "-20.0%") {
		t.Errorf("comparison output:\n%s", out.String())
	}
}

func TestCompareFlagsDigestMismatch(t *testing.T) {
	base, head := testRecord(), testRecord()
	head.Digest = "fedcba9876543210"
	if err := compareRecords(io.Discard, base, head); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch not flagged: %v", err)
	}
	head.Seed = 4 // other inputs: digests are expected to differ
	if err := compareRecords(io.Discard, base, head); err != nil {
		t.Fatalf("different seeds: %v", err)
	}
}

func TestCompareMainReadsRecords(t *testing.T) {
	dir := t.TempDir()
	base, head := testRecord(), testRecord()
	head.Fingerprint.NumCPU = 8
	pb, ph := filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json")
	if err := writeRecord(pb, base); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(ph, head); err != nil {
		t.Fatal(err)
	}
	var errOut bytes.Buffer
	if code := run([]string{"compare", pb, ph}, io.Discard, &errOut); code == 0 || !strings.Contains(errOut.String(), "num_cpu") {
		t.Errorf("exit %d, stderr %q", code, errOut.String())
	}
	if code := run([]string{"compare", pb, pb}, io.Discard, io.Discard); code != 0 {
		t.Errorf("record against itself: exit %d", code)
	}
}

// benchmarkFile is the subset of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := newBench(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
