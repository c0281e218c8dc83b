package collective

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// These tests pin the tracing contract the profiler and the benchmark's
// per-kind counters read: every collective call reports one Collective
// record per participant under its kind, with the offered and delivered
// request counts its request filter implies, after exactly one PlanBuild —
// and a re-executed plan reports one PlanReuse instead of a build.

// traceEvent is one tracer record of one thread; Transfer records are not
// kept.
type traceEvent struct {
	what     string // "build", "reuse" or the Collective kind
	elements int64
	kept     int64 // Collective records only
}

// eventLog records every thread's PlanBuild, PlanReuse and Collective
// records in the order the thread issued them.
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

func (l *eventLog) Collective(kind string, thread int, _ sim.Breakdown, elements, kept int64, _ time.Duration, _ int64) {
	l.add(thread, traceEvent{what: kind, elements: elements, kept: kept})
}
func (*eventLog) Transfer(int, int, int64) {}
func (l *eventLog) PlanBuild(thread int, elements int64) {
	l.add(thread, traceEvent{what: "build", elements: elements})
}
func (l *eventLog) PlanReuse(thread int, elements int64) {
	l.add(thread, traceEvent{what: "reuse", elements: elements})
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

// TestTraceContract: each of the eight one-shot collectives records, per
// participant, one PlanBuild of the delivered count and then one
// Collective under its kind (GetDCombined reports as GetD) with the
// offered and delivered counts its filter implies; a caller-held plan
// records its build once, and every later execution of plan.GetD or
// plan.SetDMin records one PlanReuse and no build.
func TestTraceContract(t *testing.T) {
	const n, k = 48, 60
	rt := testRT(t, 3, 2)
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", n)
	d2 := rt.NewSharedArray("D2", n)
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
		call       func(th *pgas.Thread, idx, vals, out1, out2 []int64)
	}{
		{"GetD", "GetD", func(idx, _ []int64) int64 { return nonZero(idx) }, func(th *pgas.Thread, idx, _, out1, _ []int64) {
			comm.GetD(th, d, idx, out1, opts, nil)
		}},
		{"GetDCombined", "GetD", func(idx, _ []int64) int64 { return distinctTargets(idx, true) }, func(th *pgas.Thread, idx, _, out1, _ []int64) {
			comm.GetDCombined(th, d, idx, out1, opts)
		}},
		{"SetD", "SetD", all, func(th *pgas.Thread, idx, vals, _, _ []int64) {
			comm.SetD(th, d, idx, vals, opts, nil)
		}},
		{"SetDMin", "SetDMin", keptByMin, func(th *pgas.Thread, idx, vals, _, _ []int64) {
			comm.SetDMin(th, d, idx, vals, opts, nil)
		}},
		{"SetDAdd", "SetDAdd", all, func(th *pgas.Thread, idx, vals, _, _ []int64) {
			comm.SetDAdd(th, d, idx, vals, opts, nil)
		}},
		{"GetDPair", "GetDPair", all, func(th *pgas.Thread, idx, _, out1, out2 []int64) {
			comm.GetDPair(th, d, d2, idx, out1, out2, opts, nil)
		}},
		{"Exchange", "Exchange", all, func(th *pgas.Thread, idx, _, _, _ []int64) {
			comm.Exchange(th, d, idx, opts, nil)
		}},
		{"ExchangePairs", "ExchangePairs", all, func(th *pgas.Thread, idx, vals, _, _ []int64) {
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
				e.call(th, reqs[i], vals[i], make([]int64, k), make([]int64, k))
			})
			for i := 0; i < s; i++ {
				kept := e.kept(reqs[i], vals[i])
				want := []traceEvent{{what: "build", elements: kept}, {what: e.kind, elements: k, kept: kept}}
				if got := log.events[i]; !slices.Equal(got, want) {
					t.Errorf("thread %d recorded %v, want %v", i, got, want)
				}
			}
		})
	}

	planned := []struct {
		kind string
		run  func(p *Plan, th *pgas.Thread, vals []int64)
	}{
		{"GetD", func(p *Plan, th *pgas.Thread, _ []int64) { p.GetD(th, d, make([]int64, k)) }},
		{"SetDMin", func(p *Plan, th *pgas.Thread, vals []int64) { p.SetDMin(th, d, vals) }},
	}
	for _, e := range planned {
		t.Run("plan."+e.kind, func(t *testing.T) {
			log := newEventLog(s)
			comm.SetTracer(log)
			defer comm.SetTracer(nil)
			p := comm.NewPlan()
			const execs = 3
			rt.Run(func(th *pgas.Thread) {
				i := th.ID
				p.PlanRequests(th, d, reqs[i], opts, nil)
				for r := 0; r < execs; r++ {
					e.run(p, th, vals[i])
				}
			})
			for i := 0; i < s; i++ {
				kept := nonZero(reqs[i]) // a plan honors Offload and combines nothing
				call := traceEvent{what: e.kind, elements: k, kept: kept}
				want := []traceEvent{{what: "build", elements: kept}, call}
				for r := 1; r < execs; r++ {
					want = append(want, traceEvent{what: "reuse", elements: kept}, call)
				}
				if got := log.events[i]; !slices.Equal(got, want) {
					t.Errorf("thread %d recorded %v, want %v", i, got, want)
				}
			}
		})
	}
}
