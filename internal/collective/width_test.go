package collective

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// TestWidthIndependence: the index width is the host's business alone.
// One request list per thread goes through the int64 instantiation of the
// one-shot engine (the exported collectives') and through the int32 one
// (the live list's, its roots' and PointerJump's), each on a fresh Comm
// over a fresh array. GetD, GetDCombined and SetDMin, with Offload on and
// off, at 4×2 and 3×1, on lists shorter and longer than the combine table,
// must give the same answers and the same D, the same clock bit for bit —
// time, every category, messages, bytes and cache misses — and the same
// traced Call: Offered, Kept, Served and the charged Delta.
func TestWidthIndependence(t *testing.T) {
	const n = 1 << 14
	for _, geo := range [][2]int{{4, 2}, {3, 1}} {
		for _, op := range []*serveOp{opGetD, opGetDCombined, opSetDMin} {
			for _, offload := range []bool{false, true} {
				for _, k := range []int{1000, 3 * combineSlots} {
					name := fmt.Sprintf("%dx%d/%s/combined=%v/offload=%v/k=%d", geo[0], geo[1], op.kind, op.combine != combineNone, offload, k)
					t.Run(name, func(t *testing.T) {
						s := geo[0] * geo[1]
						rng := xrand.New(uint64(k) ^ 0x3232)
						idx, vals := make([][]int64, s), make([][]int64, s)
						for i := range idx {
							idx[i], vals[i] = make([]int64, k), make([]int64, k)
							for j := range idx[i] {
								idx[i][j] = rng.Int64n(n)
								if j%3 == 0 { // repeats for the combine table, index 0 for offload
									idx[i][j] = rng.Int64n(64)
								}
								vals[i][j] = rng.Int64n(n)
							}
						}
						wide := runWidth(t, geo, op, offload, idx, vals, false)
						narrow := runWidth(t, geo, op, offload, idx, vals, true)
						if !slices.Equal(wide.d, narrow.d) {
							t.Errorf("D differs between the widths")
						}
						for i := 0; i < s; i++ {
							if !slices.Equal(wide.out[i], narrow.out[i]) {
								t.Errorf("thread %d: answers differ between the widths", i)
							}
							if wide.clocks[i] != narrow.clocks[i] {
								t.Errorf("thread %d: clock %+v at int64, %+v at int32", i, wide.clocks[i], narrow.clocks[i])
							}
							w, c := wide.calls[i], narrow.calls[i]
							if w.Offered != c.Offered || w.Kept != c.Kept || w.Delta != c.Delta || !slices.Equal(w.Served, c.Served) {
								t.Errorf("thread %d: traced %+v at int64, %+v at int32", i, w, c)
							}
						}
					})
				}
			}
		}
	}
}

// widthRun is what one width's run leaves: D, each thread's answers, clock
// and traced call.
type widthRun struct {
	d      []int64
	out    [][]int64
	clocks []sim.Clock
	calls  []Call
}

// runWidth runs op once per thread over idx (and vals, for SetDMin) on a
// fresh runtime and Comm, at int32 indices when narrow.
func runWidth(t *testing.T, geo [2]int, op *serveOp, offload bool, idx, vals [][]int64, narrow bool) *widthRun {
	rt := testRT(t, geo[0], geo[1])
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", 1<<14)
	for i := range d.Raw() {
		d.Raw()[i] = int64(i) ^ 0x155
	}
	d.Raw()[0] = 0 // the pin Offload substitutes
	opts := Optimized(2)
	opts.Offload = offload
	comm := NewComm(rt)
	calls := &lastCalls{calls: make([]Call, s)}
	comm.SetTracer(calls)
	r := &widthRun{out: make([][]int64, s), clocks: make([]sim.Clock, s)}
	rt.Run(func(th *pgas.Thread) {
		var out, values []int64
		if op.gathers {
			out = make([]int64, len(idx[th.ID]))
		}
		if op.hasValues {
			values = vals[th.ID]
		}
		if narrow {
			ix := make([]int32, len(idx[th.ID]))
			for j, x := range idx[th.ID] {
				ix[j] = int32(x)
			}
			once(comm, th, op, d, ix, values, out, opts, nil)
		} else {
			once(comm, th, op, d, idx[th.ID], values, out, opts, nil)
		}
		r.out[th.ID], r.clocks[th.ID] = out, th.Clock
	})
	r.d, r.calls = slices.Clone(d.Raw()), calls.calls
	return r
}

// lastCalls keeps each thread's last traced Call, Served copied out of
// the Comm's scratch.
type lastCalls struct {
	mu    sync.Mutex
	calls []Call
}

func (l *lastCalls) Collective(c Call) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c.Served = slices.Clone(c.Served)
	l.calls[c.Thread] = c
}
