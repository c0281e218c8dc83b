package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// CkptIncrementalD is the checkpoint registration name Incremental
// re-registers the resident label array under.
const CkptIncrementalD = "cc.incremental.D"

// Incremental updates a resident component labeling for newly inserted
// edges without rescanning the old graph. d must hold a *converged*
// labeling: every entry is the smallest vertex id of its component (the
// collapsed-star state Coalesced, SV, and a previous Incremental all
// terminate in, and the state finish() certifies). eu/ev list the new
// edges' endpoints.
//
// The algorithm is Coalesced's graft/shortcut loop restricted to the new
// edges: each round gathers both endpoint labels with one (planned) GetD,
// hooks D[max] <- min with one SetDMin, and re-collapses every tree with
// synchronous pointer jumping. Because the resident labeling is the
// component-minimum star labeling and hooks are monotone minimum writes,
// the loop converges to exactly the labeling a from-scratch run computes
// on the mutated graph — label-for-label, not just partition-equal (the
// differential harness asserts bit-identity). An insertion batch whose
// edges chain k old components together needs O(log k) rounds, independent
// of the resident graph's size.
//
// The monotone-only-decreasing invariant also keeps the update compatible
// with superstep checkpointing: d re-registers under CkptIncrementalD, so
// a supervised caller resumes from the last committed snapshot.
func Incremental(rt *pgas.Runtime, comm *collective.Comm, d *pgas.SharedArray, eu, ev []int64, opts *Options) *Result {
	if len(eu) != len(ev) {
		panic(fmt.Sprintf("cc: Incremental endpoint lists disagree: %d u vs %d v", len(eu), len(ev)))
	}
	pgas.Register(rt, CkptIncrementalD, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	graftPlan := comm.NewPlan()
	k64 := int64(len(eu))
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(k64)
		k := int(hi - lo)
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo

		gatherIdx := make([]int64, 0, 2*k)
		for e := lo; e < hi; e++ {
			gatherIdx = append(gatherIdx, eu[e], ev[e])
		}
		gatherVal := make([]int64, 2*k)
		setIdx := make([]int64, 0, k)
		setVal := make([]int64, 0, k)
		jump := collective.NewJumpScratch(span)
		th.ChargeSeq(sim.CatWork, 2*int64(k))
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: Incremental exceeded %d iterations", maxIterations))
			}
			// The new-edge endpoint vector never changes, so the plan is
			// built once and re-executed every round (as in Coalesced's
			// non-compact path).
			if iter == 0 {
				graftPlan.PlanRequests(th, d, gatherIdx, col, nil)
			}
			graftPlan.GetD(th, d, gatherVal)

			grafted := false
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < k; j++ {
				du, dv := gatherVal[2*j], gatherVal[2*j+1]
				if du == dv {
					continue
				}
				if du > dv {
					du, dv = dv, du
				}
				setIdx = append(setIdx, dv)
				setVal = append(setVal, du)
				grafted = true
			}
			th.ChargeOps(sim.CatWork, int64(k))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Re-collapse to rooted stars so the array stays directly
			// servable (same-component is one gather) and the next round's
			// endpoint labels are roots again.
			comm.PointerJump(th, d, col, red, jump, dLo)

			if !red.Reduce(th, grafted) {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}
