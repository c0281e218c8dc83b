package pgas

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"pgasgraph/internal/sim"
)

// A single-word access outside RunOneSided is a classified misuse: a new
// one-sided kernel cannot run without declaring its region.
func TestWordOutsideOneSidedRegion(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("w", 8)
	for name, op := range map[string]func(th *Thread){
		"Get":       func(th *Thread) { th.Get(a, 0, sim.CatComm) },
		"Put":       func(th *Thread) { th.Put(a, 7, 1, sim.CatComm) },
		"PutMin":    func(th *Thread) { th.PutMin(a, 3, -1, sim.CatComm) },
		"AtomicMin": func(th *Thread) { th.AtomicMin(a, 5, -1, sim.CatComm) },
	} {
		_, err := rt.RunE(op)
		if !errors.Is(err, ErrMisuse) {
			t.Errorf("%s in a Run region: %v, want ErrMisuse", name, err)
		}
	}
}

// A chaos kill inside a one-sided region leaves the turn: the peers that
// were parked on it run on to the broken barrier and the region returns
// the classified eviction instead of hanging.
func TestOneSidedChaosKillUnwinds(t *testing.T) {
	rt := testRT(t, 2, 4)
	a := rt.NewSharedArray("w", 1024)
	cfg := DefaultChaos(7)
	cfg.KillRate = 0.2
	rt.ArmChaos(cfg)
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		rt.RunOneSided(func(th *Thread) {
			for r := 0; r < 50; r++ {
				for i := int64(0); i < a.Len(); i += 7 {
					th.PutMin(a, i, int64(th.ID+r), sim.CatComm)
				}
				th.Barrier()
			}
		})
	}()
	select {
	case r := <-done:
		err, _ := r.(error)
		if Evicted(err) == nil {
			t.Fatalf("killed one-sided region raised %v, want an eviction", r)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("one-sided region with a killed thread did not unwind")
	}
}

// AtomicMin's lock is modelled: the second of two threads whose holds of
// one word overlap in simulated time is charged the contended acquire;
// disjoint words or disjoint times are not. The charges are the same under
// every GOMAXPROCS.
func TestAtomicMinModelledLock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rt := testRT(t, 1, 2)
	m := rt.Model()
	a := rt.NewSharedArray("w", 2)
	access, _ := m.IrregularAccess(1, a.NodeSpan())
	for _, tc := range []struct {
		name   string
		word1  int64   // the word thread 1 locks (thread 0 locks word 0)
		delay1 float64 // thread 1's clock before its access
		busy1  bool
	}{
		{"one word, overlapping", 0, 0, true},
		{"two words", 1, 0, false},
		{"one word, disjoint times", 0, 1e6, false},
	} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			var spent [2]float64
			rt.RunOneSided(func(th *Thread) {
				w := int64(0)
				if th.ID == 1 {
					th.Clock.Charge(sim.CatWork, tc.delay1)
					w = tc.word1
				}
				start := th.Clock.NS
				th.AtomicMin(a, w, int64(th.ID), sim.CatComm)
				spent[th.ID] = th.Clock.NS - start
			})
			want := [2]float64{access + m.Lock(false), access + m.Lock(tc.busy1)}
			if spent != want {
				t.Errorf("%s, GOMAXPROCS %d: charged %v, want %v", tc.name, procs, spent, want)
			}
		}
	}
}
