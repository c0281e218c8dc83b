package pgas

import (
	"fmt"
	"strings"
	"testing"
)

// TestLoopRunsUntilNoProgress: one thread alone reporting progress for k
// rounds keeps every thread looping, and the first round in which no thread
// made progress ends the loop — k+1 rounds on every thread, reported once as
// the region's Rounds.
func TestLoopRunsUntilNoProgress(t *testing.T) {
	const k = 3
	rt := testRT(t, 2, 2)
	red := NewReducer(rt)
	calls := make([]int, rt.NumThreads())
	res := rt.Run(func(th *Thread) {
		red.Loop(th, "test.Progress", 10, func(i int) bool {
			if i != calls[th.ID] {
				t.Errorf("thread %d: round %d after %d calls", th.ID, i, calls[th.ID])
			}
			calls[th.ID]++
			return th.ID == 2 && i < k
		})
	})
	for id, n := range calls {
		if n != k+1 {
			t.Errorf("thread %d ran %d rounds, want %d", id, n, k+1)
		}
	}
	if res.Rounds != k+1 {
		t.Errorf("Result.Rounds = %d, want %d", res.Rounds, k+1)
	}
}

// TestLoopPanicsPastMax: a body that always reports progress runs exactly
// max rounds on every thread, then the region panics naming the kernel.
func TestLoopPanicsPastMax(t *testing.T) {
	const max = 5
	rt := testRT(t, 1, 2)
	red := NewReducer(rt)
	calls := make([]int, rt.NumThreads())
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		rt.Run(func(th *Thread) {
			red.Loop(th, "test.Forever", max, func(int) bool {
				calls[th.ID]++
				return true
			})
		})
	}()
	if !strings.Contains(msg, "test.Forever") || !strings.Contains(msg, "5 rounds") {
		t.Fatalf("panic %q does not name the kernel and its bound", msg)
	}
	for id, n := range calls {
		if n != max {
			t.Errorf("thread %d ran %d rounds before the panic, want %d", id, n, max)
		}
	}
}

// TestLoopRoundsPerRegion: Rounds counts every Loop round a region ran,
// starts from zero at each region entry, and is summed by Result.Add.
func TestLoopRoundsPerRegion(t *testing.T) {
	rt := testRT(t, 2, 1)
	red := NewReducer(rt)
	loop := func(th *Thread, k int) {
		red.Loop(th, "test.Region", 10, func(i int) bool { return i < k })
	}
	first := rt.Run(func(th *Thread) {
		loop(th, 2) // 3 rounds
		loop(th, 0) // 1 round
	})
	if first.Rounds != 4 {
		t.Fatalf("two loops of 3 and 1 rounds: Rounds = %d, want 4", first.Rounds)
	}
	second := rt.Run(func(th *Thread) { loop(th, 1) })
	if second.Rounds != 2 {
		t.Fatalf("second region: Rounds = %d, want 2 (reset at entry)", second.Rounds)
	}
	if empty := rt.Run(func(*Thread) {}); empty.Rounds != 0 {
		t.Fatalf("a region without Loop: Rounds = %d, want 0", empty.Rounds)
	}
	first.Add(second)
	if first.Rounds != 6 {
		t.Fatalf("Add: Rounds = %d, want 6", first.Rounds)
	}
}

// Add folds part, the accounting of a region that ran after r's on the same
// geometry, into r — how a multi-region kernel reports one Result.
func (r *Result) Add(part *Result) {
	r.SimNS += part.SimNS
	r.Wall += part.Wall
	r.SumByCategory.Add(&part.SumByCategory)
	r.Messages += part.Messages
	r.Bytes += part.Bytes
	r.RemoteOps += part.RemoteOps
	r.CacheMisses += part.CacheMisses
	r.Rounds += part.Rounds
}
