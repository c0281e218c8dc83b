package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
)

// CkptIncrementalD is the checkpoint registration name Incremental
// re-registers the resident label array under.
const CkptIncrementalD = "cc.incremental.D"

// Incremental updates a resident component labeling for newly inserted
// edges without rescanning the old graph. d must hold a *converged*
// labeling: every entry is the smallest vertex id of its component (the
// collapsed-star state Coalesced, SV, and a previous Incremental all
// terminate in, and the state finish checks). eu/ev list the new edges'
// endpoints.
//
// The update happens in d, and Result.Labels is d's storage, not a copy:
// it is valid until the next write to d, and a caller that keeps d
// resident has nothing to install.
//
// The algorithm is Coalesced's graft-and-collapse loop (graftRounds)
// restricted to the new edges. Because the resident labeling is the
// component-minimum star labeling and hooks are monotone minimum writes,
// the loop converges to exactly the labeling a from-scratch run computes
// on the mutated graph — label-for-label, not just partition-equal (the
// differential harness asserts bit-identity). An insertion batch whose
// edges chain k old components together needs O(log k) rounds, independent
// of the resident graph's size. The batch is never compacted: it is small,
// and a list that does not change keeps its plan for every round.
//
// The monotone-only-decreasing invariant also keeps the update compatible
// with superstep checkpointing: d re-registers under CkptIncrementalD, so
// a supervised caller resumes from the last committed snapshot.
func Incremental(rt *pgas.Runtime, comm *collective.Comm, d *pgas.SharedArray, eu, ev []int64, opts *Options) *Result {
	if len(eu) != len(ev) {
		panic(fmt.Sprintf("cc: Incremental endpoint lists disagree: %d u vs %d v", len(eu), len(ev)))
	}
	return graftRounds(rt, comm, opts.col(), &graftRun{
		name: "cc.Incremental", ckpt: CkptIncrementalD,
		d: d, m: int64(len(eu)),
		ends: func(lo, hi int64, ends []int64) {
			for e := lo; e < hi; e++ {
				ends[2*(e-lo)], ends[2*(e-lo)+1] = eu[e], ev[e]
			}
		},
	})
}
