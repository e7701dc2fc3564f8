package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one run share Trace; Parent is the enclosing span
// (0 at top level).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A disabled log
// records nothing. It is used from the benchmark's main goroutine only.
type spanLog struct {
	on    bool
	trace string
	t0    time.Time
	spans []span
	open  []int // indexes of open spans, innermost last
}

func newSpanLog(trace string) *spanLog {
	return &spanLog{trace: trace, t0: time.Now()}
}

var noSpan = func() {}

// begin opens a span under the innermost open one and returns its closer.
func (l *spanLog) begin(name string) func() {
	if !l.on {
		return noSpan
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{
		ID: i + 1, Parent: parent, Trace: l.trace, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	l.open = append(l.open, i)
	return func() {
		l.spans[i].EndNs = time.Since(l.t0).Nanoseconds()
		l.open = l.open[:len(l.open)-1]
	}
}

func (l *spanLog) writeFile(path string) error {
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// spanAgg is the call count, total time and self time of one span
// name: self time is a span's duration minus the part its child spans
// cover.
type spanAgg struct {
	name        string
	n           int
	total, self int64
}

// aggregate sums spans by name, longest total first.
func (l *spanLog) aggregate() []spanAgg {
	childNs := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	index := map[string]int{}
	var out []spanAgg
	for _, s := range l.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, spanAgg{name: s.Name})
		}
		d := s.EndNs - s.StartNs
		out[i].n++
		out[i].total += d
		out[i].self += d - childNs[s.ID]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

func (l *spanLog) writeSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "spans (%d): %-28s %6s %12s %12s\n", len(l.spans), "name", "calls", "total_s", "self_s")
	for _, a := range l.aggregate() {
		fmt.Fprintf(w, "  %-38s %6d %12.6f %12.6f\n", a.name, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
}
