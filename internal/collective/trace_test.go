package collective

import (
	"slices"
	"sync"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// These tests pin the tracing contract the profiler and the benchmark's
// per-kind counters read: every collective call reports one Call per
// participant under its kind, with the offered and delivered request
// counts its request filter implies, as an execution of a fresh build —
// and a re-executed plan reports its later executions as reused.

// traceEvent is one Call of one thread, without its times, growths and
// serve loads.
type traceEvent struct {
	kind     string
	elements int64
	kept     int64
	reused   bool
}

// eventLog records every thread's Calls in the order the thread issued
// them.
type eventLog struct {
	mu     sync.Mutex
	events [][]traceEvent
}

func newEventLog(s int) *eventLog { return &eventLog{events: make([][]traceEvent, s)} }

func (l *eventLog) add(thread int, e traceEvent) {
	l.mu.Lock()
	l.events[thread] = append(l.events[thread], e)
	l.mu.Unlock()
}

func (l *eventLog) Collective(call Call) {
	l.add(call.Thread, traceEvent{kind: call.Kind, elements: call.Offered, kept: call.Kept, reused: call.Reused})
}

// nonZero counts the requests the offload filter keeps: those not for the
// offloaded index 0.
func nonZero(idx []int64) int64 {
	var k int64
	for _, ix := range idx {
		if ix != 0 {
			k++
		}
	}
	return k
}

// keptByMin counts the requests the one-shot SetDMin delivers with Offload
// on: not for index 0, and not beaten by an earlier kept request to the
// same index with a value at least as small (the targets here fit the
// filter's table without collisions).
func keptByMin(idx, vals []int64) int64 {
	sent := map[int64]int64{}
	var k int64
	for j, ix := range idx {
		if ix == 0 {
			continue
		}
		if v, ok := sent[ix]; ok && v <= vals[j] {
			continue
		}
		sent[ix] = vals[j]
		k++
	}
	return k
}

// TestTraceContract: each of the seven one-shot collectives records, per
// participant, one Call under its kind (GetDCombined reports as GetD) with
// the offered and delivered counts its filter implies, not reused; a
// caller-held plan's first execution records the same, and every later
// execution of plan.GetD records a reused Call.
func TestTraceContract(t *testing.T) {
	const n, k = 48, 60
	rt := testRT(t, 3, 2)
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", n)
	reqs, vals := make([][]int64, s), make([][]int64, s)
	for i := range reqs {
		r := xrand.New(uint64(31 + i))
		reqs[i], vals[i] = make([]int64, k), make([]int64, k)
		for j := range reqs[i] {
			reqs[i][j] = r.Int64n(n) // repeats and index 0 abound
			vals[i][j] = r.Int64n(1 << 20)
		}
		reqs[i][0] = 0
	}
	all := func(idx, _ []int64) int64 { return int64(len(idx)) }
	opts := Optimized(2) // Offload on: the filtering ops drop index 0
	comm := NewComm(rt)
	entries := []struct {
		name, kind string
		kept       func(idx, vals []int64) int64
		call       func(th *pgas.Thread, idx, vals, out []int64)
	}{
		{"GetD", "GetD", func(idx, _ []int64) int64 { return nonZero(idx) }, func(th *pgas.Thread, idx, _, out []int64) {
			comm.GetD(th, d, idx, out, opts, nil)
		}},
		{"GetDCombined", "GetD", func(idx, _ []int64) int64 { return distinctTargets(idx, true) }, func(th *pgas.Thread, idx, _, out []int64) {
			comm.GetDCombined(th, d, idx, out, opts)
		}},
		{"SetD", "SetD", all, func(th *pgas.Thread, idx, vals, _ []int64) {
			comm.SetD(th, d, idx, vals, opts, nil)
		}},
		{"SetDMin", "SetDMin", keptByMin, func(th *pgas.Thread, idx, vals, _ []int64) {
			comm.SetDMin(th, d, idx, vals, opts, nil)
		}},
		{"Exchange", "Exchange", all, func(th *pgas.Thread, idx, _, _ []int64) {
			comm.Exchange(th, d, idx, opts, nil)
		}},
		{"ExchangePairs", "ExchangePairs", all, func(th *pgas.Thread, idx, vals, _ []int64) {
			comm.ExchangePairs(th, d, idx, vals, opts, nil)
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			log := newEventLog(s)
			comm.SetTracer(log)
			defer comm.SetTracer(nil)
			rt.Run(func(th *pgas.Thread) {
				i := th.ID
				e.call(th, reqs[i], vals[i], make([]int64, k))
			})
			for i := 0; i < s; i++ {
				kept := e.kept(reqs[i], vals[i])
				want := []traceEvent{{kind: e.kind, elements: k, kept: kept}}
				if got := log.events[i]; !slices.Equal(got, want) {
					t.Errorf("thread %d recorded %v, want %v", i, got, want)
				}
			}
		})
	}

	t.Run("plan.GetD", func(t *testing.T) {
		log := newEventLog(s)
		comm.SetTracer(log)
		defer comm.SetTracer(nil)
		p := comm.NewPlan()
		const execs = 3
		rt.Run(func(th *pgas.Thread) {
			i := th.ID
			p.PlanRequests(th, d, reqs[i], opts, nil)
			for r := 0; r < execs; r++ {
				p.GetD(th, d, make([]int64, k))
			}
		})
		for i := 0; i < s; i++ {
			kept := nonZero(reqs[i]) // a plan honors Offload and combines nothing
			want := []traceEvent{{kind: "GetD", elements: k, kept: kept}}
			for r := 1; r < execs; r++ {
				want = append(want, traceEvent{kind: "GetD", elements: k, kept: kept, reused: true})
			}
			if got := log.events[i]; !slices.Equal(got, want) {
				t.Errorf("thread %d recorded %v, want %v", i, got, want)
			}
		}
	})
}
