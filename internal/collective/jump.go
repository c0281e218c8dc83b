package collective

import (
	"fmt"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// maxJumpLevels bounds PointerJump: a forest of n vertices collapses in
// O(log n) levels, so hitting the bound means d holds a cycle — a kernel
// bug — and panics.
const maxJumpLevels = 512

// Layout is the placement of a kernel's label array: it rewrites each
// vertex ix[i] in place as pos(ix[i]), the position at which the array
// holds that vertex's label. Labels stay vertex ids; a label becomes an
// index only where a collective asks the array for it — PointerJump's
// request and a live-edge list's endpoints and roots — and that is where
// the layout is applied, each translation charged as one op. A nil Layout
// is the identity: vertex v at index v.
type Layout func(ix []int32)

// PointerJump applies synchronous pointer jumping (D[i] <- D[D[i]] in
// lock step, "we insert artificial synchronizations into pointer-jumping",
// §IV.A) over the caller's ThreadCover block until all trees are rooted
// stars, using one GetDCombined per level. Only vertices not yet pointing
// at a root stay active: no hooks happen during the phase, so a root can
// never move and a vertex whose label did not change is finished. Under
// Offload, D[0] = 0 is pinned and every layout keeps vertex 0 at position
// 0, so a vertex whose new label is 0 is finished too. d must be a
// forest (hooks need not be monotone in label order, as long as they are
// acyclic) laid out by pos: the label at position p is a vertex, whose
// own label is read at its position. Every thread must call it, lending
// it scratch (a stars list's EdgeList.SlabIdx and SlabVal): idx, two
// indices per block element — where the active vertices' labels live, and
// the active positions — and vals, one word per block element for those
// labels' labels.
func (c *Comm) PointerJump(th *pgas.Thread, d *pgas.SharedArray, opts *Options,
	red *pgas.Reducer, idx []int32, vals []int64, pos Layout) {
	dLo, dHi := d.ThreadCover(th.ID)
	span := dHi - dLo
	jumpIdx, active, jumpVal := idx[:span], idx[span:2*span], vals[:span]
	raw := d.Raw()
	for i := range active {
		active[i] = int32(dLo) + int32(i)
	}
	th.ChargeSeq(sim.CatWork, span)
	for level := 0; ; level++ {
		if level >= maxJumpLevels {
			panic(fmt.Sprintf("collective: PointerJump exceeded %d levels", maxJumpLevels))
		}
		// Read the active vertices' labels (private pointer arithmetic
		// when localcpy is on, shared-pointer overhead otherwise).
		k := int64(len(active))
		for j, v := range active {
			jumpIdx[j] = int32(raw[v])
		}
		th.ChargeSeq(sim.CatCopy, k)
		if !opts.LocalCpy {
			th.ChargeSharedPtr(sim.CatCopy, k)
		}
		if pos != nil {
			if c.fault != FaultUnscattered {
				pos(jumpIdx[:k])
			}
			th.ChargeOps(sim.CatWork, k)
		}
		// One jump level: fetch the label of every label, each root once.
		once(c, th, opGetDCombined, d, jumpIdx[:k], nil, jumpVal[:k], opts, nil)
		w := 0
		for j, v := range active {
			if jumpVal[j] != raw[v] {
				d.StoreRaw(int64(v), jumpVal[j])
				if jumpVal[j] != 0 || !opts.Offload {
					active[w] = v
					w++
				}
			}
		}
		active = active[:w]
		th.ChargeSeq(sim.CatCopy, 2*k)
		if !opts.LocalCpy {
			th.ChargeSharedPtr(sim.CatCopy, k)
		}
		if !red.Or(th, w > 0) {
			return
		}
	}
}
