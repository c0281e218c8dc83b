package sched

import (
	"fmt"

	"pgasgraph/internal/psort"
)

// Arena pools the per-recursion-level scratch of Reference so repeated
// applications of Algorithm 1 (one recursive count-sort per level) reuse
// buffers instead of reallocating them every call. The zero value is
// ready; buffers grow on demand and persist across calls. An Arena must
// not be shared between concurrent Reference calls.
type Arena struct {
	levels []refLevel
}

// refLevel is one recursion level's scratch: the group phase's count-sort
// buffers plus the access phase's block-local request and value space.
type refLevel struct {
	keys     []int32
	pos      []int32
	sorted   []int64
	offs     []int64
	vals     []int64
	localReq []int64
	cursor   []int64
}

// level returns (allocating if needed) the scratch for recursion depth d.
func (a *Arena) level(d int) *refLevel {
	for len(a.levels) <= d {
		a.levels = append(a.levels, refLevel{})
	}
	return &a.levels[d]
}

// Reference computes C[i] = D[R[i]] by literal recursive application of
// Algorithm 1 with fan-out w per level and the given maximum recursion
// depth (the paper limits depth to three). It performs the partition,
// group, access, and permute phases with real data movement and no cost
// accounting. R values must lie in [0, len(D)).
func Reference(d, r []int64, w, depth int) []int64 {
	c := make([]int64, len(r))
	referenceArena(d, r, w, depth, c, &Arena{})
	return c
}

// referenceArena is Reference writing into c (len(c) == len(r)) with
// per-level scratch drawn from arena, so repeated calls are
// allocation-free once the arena is warm.
func referenceArena(d, r []int64, w, depth int, c []int64, arena *Arena) {
	n := int64(len(d))
	m := int64(len(r))
	if n == 0 {
		if m != 0 {
			panic("sched: requests into empty array")
		}
		return
	}
	if n == 1 {
		for i := range c {
			c[i] = d[0]
		}
		return
	}
	if depth <= 0 || w <= 1 || m == 0 {
		for i, idx := range r {
			c[i] = d[idx]
		}
		return
	}
	if int64(w) > n {
		w = int(n)
	}
	blk := (n + int64(w) - 1) / int64(w)
	lv := arena.level(depth)

	// group: count-sort requests by target block, remembering positions.
	lv.keys = Grow32(lv.keys, int(m), nil)
	keys := lv.keys[:m]
	for i, idx := range r {
		if idx < 0 || idx >= n {
			panic(fmt.Sprintf("sched: request %d out of range [0,%d)", idx, n))
		}
		keys[i] = int32(idx / blk)
	}
	lv.sorted = Grow64(lv.sorted, int(m), nil)
	lv.pos = Grow32(lv.pos, int(m), nil)
	lv.offs = Grow64(lv.offs, w+1, nil)
	lv.cursor = Grow64(lv.cursor, w, nil)
	sorted, pos, offs := lv.sorted[:m], lv.pos[:m], lv.offs[:w+1]
	psort.BucketByKeyInto(r, keys, w, sorted, pos, offs, lv.cursor)

	// access: serve each block with a recursive call on block-local
	// indices. Deeper levels draw from their own arena slots, so this
	// level's buffers stay live across the loop.
	lv.vals = Grow64(lv.vals, int(m), nil)
	vals := lv.vals[:m]
	for b := 0; b < w; b++ {
		lo, hi := offs[b], offs[b+1]
		if lo == hi {
			continue
		}
		dLo := int64(b) * blk
		dHi := dLo + blk
		if dHi > n {
			dHi = n
		}
		lv.localReq = Grow64(lv.localReq, int(hi-lo), nil)
		localReq := lv.localReq[:hi-lo]
		for i, idx := range sorted[lo:hi] {
			localReq[i] = idx - dLo
		}
		referenceArena(d[dLo:dHi], localReq, w, depth-1, vals[lo:hi], arena)
	}

	// permute: route values back to request order.
	for j, p := range pos {
		c[p] = vals[j]
	}
}
