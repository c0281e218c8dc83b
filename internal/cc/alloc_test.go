package cc

import (
	"runtime"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
)

// TestCoalescedAllocBudget holds one cc.Coalesced run at 4 × 2 to what it
// must allocate: D, every thread's Ends and Labels (two words per edge
// each), its hook slab (max(2·span, 3·block) words, PointerJump's scratch
// included), its roots bitmap and ranks, and the read-out, plus 64 KB for
// the bookkeeping. A separate jump scratch (3n words, 384 KB here) or
// separate hook buffers would not fit. A first run warms the Comm, so its
// retained exchange buffers are not counted; TotalAlloc counts every byte
// allocated, whether or not it is freed by the time it is read.
func TestCoalescedAllocBudget(t *testing.T) {
	const n, m = 1 << 14, 1 << 16
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	g := graph.Random(n, m, 11)
	opts := &Options{Col: collective.Optimized(2), Compact: true}
	Coalesced(rt, comm, g, opts)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Coalesced(rt, comm, g, opts)
	runtime.ReadMemStats(&after)
	checkAgainstSequential(t, g, res)

	s := int64(rt.NumThreads())
	span, block := (m+s-1)/s, (n+s-1)/s
	words := n + 4*m + s*max(2*span, 3*block) + s*(n/64)*3/2 + n
	budget := 8*words + 64<<10
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("allocated %d bytes, %d over the %d of the listed buffers; budget %d", got, got-8*words, 8*words, budget)
	if got > budget {
		t.Errorf("cc.Coalesced at 4x2 on n=%d, m=%d allocated %d bytes, over its budget of %d", n, m, got, budget)
	}
}
