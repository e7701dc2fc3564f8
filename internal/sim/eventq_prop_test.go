package sim

import (
	"container/heap"
	"testing"
)

// oracleEvent orders by (time, push sequence): the FIFO-on-ties contract
// the calendar queue documents and the pdes op-log merge leans on.
type oracleEvent struct {
	at  Cycle
	seq uint64
	val int
}

type oracleHeap []oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// driveQueues replays one op stream against the calendar queue and the
// binary-heap oracle, failing on the first divergence. Ops are pairs
// drawn from r: a push probability draw and, for pushes, a time delta.
// Push times track the last popped time (the simulator's monotone
// regime) with an occasional straggler far ahead and, when allowed, a
// rare push behind the current window to exercise the rewind path.
func driveQueues(t *testing.T, r *RNG, ops int, pushBehind bool) {
	t.Helper()
	q := NewEventQueue(16)
	var o oracleHeap
	var (
		seq     uint64
		lastPop Cycle
		val     int
	)
	for i := 0; i < ops; i++ {
		doPush := q.Len() == 0 || r.Float64() < 0.55
		if doPush {
			at := lastPop
			switch u := r.Float64(); {
			case u < 0.05:
				at += Cycle(200 + r.Uint64n(100)) // memory straggler
			case u < 0.10 && pushBehind && at > 4:
				at -= Cycle(1 + r.Uint64n(4)) // behind the window: rewind
			default:
				at += Cycle(r.Uint64n(8)) // dense near-term reschedule
			}
			val++
			q.Push(at, val)
			heap.Push(&o, oracleEvent{at: at, seq: seq, val: val})
			seq++

			oat, ov := o[0].at, o[0].val
			if pat, pv := q.Peek(); pat != oat || pv != ov {
				t.Fatalf("op %d: Peek = (%d, %d), oracle min (%d, %d)", i, pat, pv, oat, ov)
			}
		} else {
			at, v := q.Pop()
			e := heap.Pop(&o).(oracleEvent)
			if at != e.at || v != e.val {
				t.Fatalf("op %d: Pop = (%d, %d), oracle (%d, %d) seq %d", i, at, v, e.at, e.val, e.seq)
			}
			lastPop = at
		}
		if q.Len() != len(o) {
			t.Fatalf("op %d: Len = %d, oracle %d", i, q.Len(), len(o))
		}
	}
	for len(o) > 0 {
		at, v := q.Pop()
		e := heap.Pop(&o).(oracleEvent)
		if at != e.at || v != e.val {
			t.Fatalf("drain: Pop = (%d, %d), oracle (%d, %d)", at, v, e.at, e.val)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drain: Len = %d after oracle empty", q.Len())
	}
}

// TestEventQueueVsHeapOracle checks the calendar queue against a binary
// heap with an explicit (time, push-sequence) order over many random
// push/pop interleavings: same pop order — including FIFO on same-cycle
// ties — same peeks, same lengths.
func TestEventQueueVsHeapOracle(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		driveQueues(t, NewRNG(seed), 4_000, seed%2 == 1)
	}
}

// TestEventQueueSameCycleFIFO floods single cycles with bursts and
// verifies pop order equals push order within each cycle, across lap
// boundaries of the 256-bucket calendar.
func TestEventQueueSameCycleFIFO(t *testing.T) {
	q := NewEventQueue(8)
	r := NewRNG(7)
	next := 0
	for burst := 0; burst < 400; burst++ {
		at := Cycle(burst) * 37 // strides across lap boundaries
		n := 1 + int(r.Uint64n(12))
		for k := 0; k < n; k++ {
			q.Push(at, next)
			next++
		}
		want := next - n
		for k := 0; k < n; k++ {
			gat, gv := q.Pop()
			if gat != at || gv != want {
				t.Fatalf("burst %d: Pop = (%d, %d), want (%d, %d)", burst, gat, gv, at, want)
			}
			want++
		}
	}
}

// FuzzEventQueue lets the fuzzer pick the op stream bytes: each byte
// chooses push-vs-pop and the time delta, replayed against the oracle.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x13, 0x80, 0x7f, 0xff, 0x01, 0x01, 0x90})
	f.Add([]byte("calendar queues have laps"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		q := NewEventQueue(4)
		var o oracleHeap
		var (
			seq     uint64
			lastPop Cycle
			val     int
		)
		for i, b := range ops {
			if b < 0xa0 || q.Len() == 0 {
				// Push: low 5 bits pick the delta ahead of the frontier;
				// 0x1f maps to a far straggler beyond one lap.
				d := Cycle(b & 0x1f)
				if d == 0x1f {
					d = 300
				}
				at := lastPop + d
				val++
				q.Push(at, val)
				heap.Push(&o, oracleEvent{at: at, seq: seq, val: val})
				seq++
			} else {
				at, v := q.Pop()
				e := heap.Pop(&o).(oracleEvent)
				if at != e.at || v != e.val {
					t.Fatalf("op %d: Pop = (%d, %d), oracle (%d, %d)", i, at, v, e.at, e.val)
				}
				lastPop = at
			}
			if q.Len() != len(o) {
				t.Fatalf("op %d: Len = %d, oracle %d", i, q.Len(), len(o))
			}
		}
		for len(o) > 0 {
			at, v := q.Pop()
			e := heap.Pop(&o).(oracleEvent)
			if at != e.at || v != e.val {
				t.Fatalf("drain: Pop = (%d, %d), oracle (%d, %d)", at, v, e.at, e.val)
			}
		}
	})
}
