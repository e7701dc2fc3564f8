package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "manifests.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []Manifest{
		{
			Label: "TPC-H shared-4-way/affinity", Workloads: []string{"TPC-H"},
			GroupSize: 4, Policy: "affinity", Scale: 16, Seed: 1,
			WarmupRefs: 2000, MeasureRefs: 4000, Replicates: 1,
			Refs: 64000, Cycles: 123456, WallSeconds: 0.25,
		},
		{
			Label: "TPC-W+SPECjbb shared/rr", Workloads: []string{"TPC-W", "SPECjbb"},
			GroupSize: 16, Policy: "rr", Scale: 4, Seed: 7,
			WarmupRefs: 1000, MeasureRefs: 2000, SnapshotRefs: 500,
			Replicates: 3, Refs: 96000, Cycles: 654321, WallSeconds: 1.5,
			Parallel:    4,
			PdesWorkers: 4, PdesDomains: 4, PdesReplayWorkers: 4,
			PdesStalls: 17, PdesStallSeconds: 0.004,
		},
	}
	for _, m := range in {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d manifests, wrote %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if got.Label != want.Label || got.GroupSize != want.GroupSize ||
			got.Policy != want.Policy || got.Scale != want.Scale ||
			got.Seed != want.Seed || got.Replicates != want.Replicates ||
			got.Refs != want.Refs || got.Cycles != want.Cycles ||
			got.WallSeconds != want.WallSeconds || got.Parallel != want.Parallel {
			t.Errorf("manifest %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		// Environment fields are stamped by Write, not the caller.
		if got.Time == "" || got.Tool == "" || got.GoVersion == "" {
			t.Errorf("manifest %d missing stamped fields: %+v", i, got)
		}
		if !strings.HasPrefix(got.Tool, "consim ") {
			t.Errorf("manifest %d tool = %q", i, got.Tool)
		}
	}
}

// TestManifestStampsEnvironment checks Write fills the v2 schema
// fields the caller left zero, and records the time-series sidecar path
// only for runs that carried a recorder.
func TestManifestStampsEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	w, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTimeseriesPath("results/ts.jsonl")
	if err := w.Write(Manifest{Label: "plain"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Manifest{Label: "recorded", TimeseriesRun: 3, TimeseriesRows: 40}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range out {
		if m.Version != ManifestVersion {
			t.Errorf("manifest %d version = %d, want %d", i, m.Version, ManifestVersion)
		}
		if m.GOMAXPROCS == 0 || m.NumCPU == 0 {
			t.Errorf("manifest %d missing host parallelism: %+v", i, m)
		}
	}
	if out[0].Timeseries != "" {
		t.Errorf("run without a recorder got a sidecar path %q", out[0].Timeseries)
	}
	if out[1].Timeseries != "results/ts.jsonl" || out[1].TimeseriesRun != 3 || out[1].TimeseriesRows != 40 {
		t.Errorf("recorded run sidecar reference = %+v", out[1])
	}
}

// TestReadManifestsBackwardCompat decodes a pre-v2 line (no version, no
// gomaxprocs, no phase): old sidecars must keep reading, with the new
// fields zero.
func TestReadManifestsBackwardCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	old := `{"time":"2026-01-01T00:00:00Z","tool":"consim v0.6","go_version":"go1.22",` +
		`"label":"TPC-H shared/affinity","workloads":["TPC-H"],"group_size":4,"policy":"affinity",` +
		`"scale":16,"seed":1,"warmup_refs":2000,"measure_refs":4000,"replicates":1,` +
		`"refs":64000,"cycles":123456,"wall_seconds":0.25,"cpu_seconds":0.3}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatalf("old-schema sidecar failed to read: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("read %d records, want 1", len(out))
	}
	m := out[0]
	if m.Label != "TPC-H shared/affinity" || m.Refs != 64000 {
		t.Fatalf("old record mangled: %+v", m)
	}
	if m.Version != 0 || m.GOMAXPROCS != 0 || m.NumCPU != 0 || m.Phase != nil || m.Timeseries != "" {
		t.Fatalf("old record grew phantom v2 fields: %+v", m)
	}
}

// TestReadManifestsRemovedEngineFields decodes a v2 line written while
// the sharded engine and the pdes pipeline existed: its shard_* fields,
// the phase profile's lane_busy_seconds and pipeline overlap, and
// pdes_pipelined must not stop manifests already on disk from loading
// for cmd/obs report and diff.
func TestReadManifestsRemovedEngineFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.jsonl")
	line := `{"version":2,"time":"2026-09-01T00:00:00Z","tool":"consim v0.9","go_version":"go1.24",` +
		`"gomaxprocs":2,"num_cpu":2,"label":"TPC-W+SPECjbb+TPC-H+SPECweb shared-4-way/affinity 1/16",` +
		`"workloads":["TPC-W","SPECjbb","TPC-H","SPECweb"],"group_size":4,"policy":"affinity",` +
		`"scale":16,"seed":1,"warmup_refs":50000,"measure_refs":200000,"replicates":1,` +
		`"refs":3200000,"cycles":9876543,"wall_seconds":2.5,"cpu_seconds":4.1,"parallel":1,` +
		`"shards":2,"shard_prefills":1200,"shard_sync_fills":31,"shard_think_batches":900,` +
		`"shard_stalls":17,"shard_stall_seconds":0.004,` +
		`"pdes_workers":2,"pdes_domains":2,"pdes_windows":40,"pdes_ops":5000,` +
		`"pdes_apply_seconds":0.5,"pdes_replay_workers":2,"pdes_pipelined":true,` +
		`"phase":{"warmup_seconds":0.5,"measure_seconds":2.0,"pdes_window_seconds":1.6,` +
		`"pdes_replay_seconds":0.5,"pdes_barrier_seconds":0.3,"pdes_replay_parallel_seconds":0.2,` +
		`"pdes_replay_merge_seconds":0.1,"pdes_pipeline_overlap_seconds":0.05,` +
		`"lane_busy_seconds":[0.4,0.3]}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadManifests(path)
	if err != nil {
		t.Fatalf("manifest with removed engine fields failed to read: %v", err)
	}
	if len(ms) != 1 {
		t.Fatalf("read %d records, want 1", len(ms))
	}
	m := ms[0]
	if m.Version != 2 || m.Refs != 3200000 || m.PdesWorkers != 2 || m.PdesReplayWorkers != 2 {
		t.Fatalf("record mangled: %+v", m)
	}
	if m.Phase == nil || m.Phase.Engine() != "pdes" || m.Phase.PdesReplayMergeSeconds != 0.1 {
		t.Fatalf("phase profile mangled: %+v", m.Phase)
	}
	var report strings.Builder
	WritePhaseReport(&report, m, nil)
	if !strings.Contains(report.String(), "cross-group deferred merge") {
		t.Errorf("phase report lost the replay decomposition:\n%s", report.String())
	}

	sums, kind, err := ReadRunSummaries(path)
	if err != nil {
		t.Fatalf("ReadRunSummaries: %v", err)
	}
	if kind != "manifest" || len(sums) != 1 {
		t.Fatalf("ReadRunSummaries = %d records of kind %q, want 1 manifest", len(sums), kind)
	}
	if s := sums[0]; s.RefsPerSec != 3200000/2.5 || s.ApplyFraction <= 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestReadManifestsErrorPaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// An empty sidecar is no records, not an error (a fresh -manifest
	// file that no run wrote to yet).
	out, err := ReadManifests(write("empty.jsonl", ""))
	if err != nil || len(out) != 0 {
		t.Errorf("empty file: out=%v err=%v, want nil/nil", out, err)
	}

	// A truncated final line (crash mid-append) is an error, not silent
	// data loss.
	if _, err := ReadManifests(write("trunc.jsonl",
		`{"label":"ok","wall_seconds":1}`+"\n"+`{"label":"cut","wall_se`)); err == nil {
		t.Error("truncated line did not error")
	}

	// Non-JSON garbage is an error.
	if _, err := ReadManifests(write("bad.jsonl", "not json at all\n")); err == nil {
		t.Error("bad JSON did not error")
	}

	// A missing file surfaces the filesystem error.
	if _, err := ReadManifests(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestManifestAppendsAcrossWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	for i := 0; i < 2; i++ {
		w, err := OpenManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(Manifest{Label: "run", Workloads: []string{"TPC-H"}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadManifests(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("re-opened sidecar holds %d records, want 2 (append, not truncate)", len(out))
	}
}
