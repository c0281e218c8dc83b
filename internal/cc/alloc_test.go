package cc

import (
	"runtime"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
)

// TestCoalescedAllocBudget holds one cc.Coalesced run at 4 × 2 to what it
// must allocate: D, every thread's Ends (int32, two an edge) and Labels
// (two words an edge), its hook slab in two halves (max(span, 2·block)
// int32 indices and max(span, block) words, PointerJump's scratch
// included), its roots bitmap and ranks, and the read-out, plus 64 KB for
// the bookkeeping. A separate jump scratch, separate hook buffers or
// 8-byte indices would not fit. A first run warms the Comm, so its
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
	buffers := []struct {
		name  string
		bytes int64
	}{
		{"D", 8 * n},
		{"Ends", 4 * 2 * m},
		{"Labels", 8 * 2 * m},
		{"SlabIdx", s * 4 * max(span, 2*block)},
		{"SlabVal", s * 8 * max(span, block)},
		{"roots bitmap and ranks", s * (n / 64) * (8 + 4)},
		{"read-out", 8 * n},
	}
	var listed int64
	for _, b := range buffers {
		t.Logf("%-22s %9d bytes", b.name, b.bytes)
		listed += b.bytes
	}
	budget := listed + 64<<10
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("allocated %d bytes, %d over the %d of the listed buffers; budget %d", got, got-listed, listed, budget)
	if got > budget {
		t.Errorf("cc.Coalesced at 4x2 on n=%d, m=%d allocated %d bytes, over its budget of %d", n, m, got, budget)
	}
}
