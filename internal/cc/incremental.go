package cc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/unionfind"
)

// CkptIncrementalD is the checkpoint registration name Incremental
// re-registers the resident label array under.
const CkptIncrementalD = "cc.incremental.D"

// Incremental updates a resident component labeling for newly inserted
// edges without rescanning the old graph. d must hold a *converged*
// labeling: every entry is the smallest vertex id of its component (the
// collapsed-star state every CC kernel terminates in). eu/ev list the new
// edges' endpoints. The update happens in d, and Result.Labels is d's
// storage, not a copy: it is valid until the next write to d.
//
// A batch of k edges can only merge the at most 2k components its
// endpoints sit in, so the update is one region with one collective and
// no rounds: every thread gathers all 2k endpoint labels (GetDCombined),
// runs the same union-find over them, the smaller root winning, and
// applies the result to its ThreadCover block, checking D[v] <= v and
// counting its roots for a Reducer's Sum. The labels are exactly a
// from-scratch run's on the mutated graph; Iterations is 1, and Merged
// lets per-component state update in O(merges). Each thread pays
// O(k + n/s), and every snapshot of d (registered under
// CkptIncrementalD) falls before or after the relabel (docs/MODEL.md).
func Incremental(rt *pgas.Runtime, comm *collective.Comm, d *pgas.SharedArray, eu, ev []int64, opts *Options) *Result {
	if len(eu) != len(ev) {
		panic(fmt.Sprintf("cc: Incremental endpoint lists disagree: %d u vs %d v", len(eu), len(ev)))
	}
	pgas.Register(rt, CkptIncrementalD, d)
	col := opts.col()
	sum := pgas.NewReducer(rt)
	ends := make([]int64, 0, 2*len(eu))
	for e := range eu {
		ends = append(ends, eu[e], ev[e])
	}
	res := &Result{Labels: d.Raw(), Iterations: 1}
	var once sync.Once // every process reads out from one of its threads

	res.Run = rt.Run(func(th *pgas.Thread) {
		labels := make([]int64, len(ends))
		comm.GetDCombined(th, d, ends, labels, col)
		merged := contract(labels)
		th.ChargeOps(sim.CatWork, int64(len(labels)*bits.Len(uint(len(labels)))))

		// A 2^16-bit filter over the merged roots: a label whose bit is
		// clear is none of them, one whose bit is set is looked up.
		var maybe [1 << 10]uint64
		for _, m := range merged {
			maybe[m[0]>>6&1023] |= 1 << (m[0] & 63)
		}
		dLo, dHi := d.ThreadCover(th.ID)
		var roots int64
		for i, l := range d.Raw()[dLo:dHi] {
			v := dLo + int64(i)
			if uint64(l) > uint64(v) {
				panic(invariantBroken(v, l))
			}
			if maybe[l>>6&1023]&(1<<(l&63)) != 0 {
				if i, ok := slices.BinarySearchFunc(merged, l, func(m [2]int64, l int64) int { return cmp.Compare(m[0], l) }); ok {
					l = merged[i][1]
					d.StoreRaw(v, l)
				}
			}
			if l == v {
				roots++
			}
		}
		th.ChargeSeq(sim.CatWork, dHi-dLo)
		th.ChargeOps(sim.CatWork, dHi-dLo)
		components := sum.Sum(th, roots)
		once.Do(func() { res.Components, res.Merged = components, merged })
	})
	return res
}

// contract is a batch's union-find. Over the distinct labels its endpoints
// carry — at most 2k, whatever n is — it unions each edge's two and
// returns every (old root, new root) pair that made, the new root being
// its set's smallest label, sorted by old root. A label breaking D[i] <= i
// is its vertex's thread's to report: every vertex is checked in the
// relabel before the table touches it.
func contract(labels []int64) (merged [][2]int64) {
	roots := slices.Clone(labels)
	slices.Sort(roots)
	roots = slices.Compact(roots)
	at := func(l int64) int32 { i, _ := slices.BinarySearch(roots, l); return int32(i) }
	uf := unionfind.New(int64(len(roots)))
	for j := 0; j < len(labels); j += 2 {
		uf.Union(at(labels[j]), at(labels[j+1]))
	}
	// The roots ascend, so the first member of a set met is its smallest.
	first := make([]int32, len(roots)) // 1 + the index of set r's smallest member
	for i := range roots {
		r := uf.Find(int32(i))
		if first[r] == 0 {
			first[r] = int32(i) + 1
		} else {
			merged = append(merged, [2]int64{roots[i], roots[first[r]-1]})
		}
	}
	return merged
}
