package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the host and build a record was taken on.
// Timings from records whose host fields differ are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	PGO        bool   `json:"pgo"`
}

// hostFingerprint describes this process. The commit is the VCS
// revision the binary was built from when the build recorded one, and
// otherwise a digest of the module's source files under srcRoot.
func hostFingerprint(srcRoot string) fingerprint {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			case "-pgo":
				fp.PGO = s.Value != ""
			}
		}
		if fp.Commit != "" && dirty {
			fp.Commit += "+dirty"
		}
	}
	if fp.Commit == "" {
		fp.Commit = sourceDigest(srcRoot)
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources, module files and PGO profiles
// under root (skipping hidden directories such as the build output), so
// a checkout without VCS metadata still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".pgo":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "src-unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// hostDiff lists the host fields on which a and b differ. The commit is
// not a host field: comparing two commits is the point of a comparison.
func (a fingerprint) hostDiff(b fingerprint) []string {
	var d []string
	add := func(name string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("pgo", a.PGO, b.PGO)
	return d
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one benchmark run reports: what ran, on what,
// the digest of its simulated statistics, failure counts, metrics and
// the summaries behind the timed ones.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Digest      string             `json:"digest"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Summaries   map[string]summary `json:"summaries,omitempty"`
}

func readRecord(path string) (record, error) {
	var r record
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func writeRecord(path string, r record) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// compareRecords writes a metric-by-metric comparison of base and head
// to w. It refuses records taken on different hosts, and flags a digest
// mismatch between runs of the same workload and seed: the simulated
// statistics changed, so the timings measure different work. The
// returned error is non-nil when the comparison was refused or flagged.
func compareRecords(w io.Writer, base, head record) error {
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return fmt.Errorf("refused: records are for %s/trace=%v and %s/trace=%v",
			base.Workload, base.Trace, head.Workload, head.Trace)
	}
	if d := base.Fingerprint.hostDiff(head.Fingerprint); len(d) > 0 {
		return fmt.Errorf("refused: host fingerprints differ (%s)", strings.Join(d, "; "))
	}
	fmt.Fprintf(w, "workload %s: commit %s -> %s\n", base.Workload, base.Fingerprint.Commit, head.Fingerprint.Commit)
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Metrics[name]
		h, ok := head.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s -> missing\n", name, b.Value, b.Unit)
			continue
		}
		change := ""
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(h.Value-b.Value)/b.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %-14.6g %-10s %s\n", name, b.Value, h.Value, b.Unit, change)
	}
	fmt.Fprintf(w, "  failed %d/%d -> %d/%d\n", base.Failed, base.Attempted, head.Failed, head.Attempted)
	if base.Seed == head.Seed && base.Digest != head.Digest {
		return fmt.Errorf("flagged: digest %s -> %s for seed %d: simulated statistics differ",
			base.Digest, head.Digest, base.Seed)
	}
	return nil
}
