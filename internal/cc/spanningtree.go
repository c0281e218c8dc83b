package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// SpanningTree computes a spanning forest of g with the coalesced CC
// kernel: the paper treats the spanning tree problem as "closely related"
// to CC (§V) — the grafting step simply records which edge won each hook.
//
// Mechanics: the hook targets are elected through SetDMin on a packed
// (smaller-label, edge-id) key, so the winning write also identifies the
// winning edge. Hooks always point from the larger label to the smaller,
// which makes every hook a merge of two distinct components; the union of
// winning hook edges over all rounds is therefore a spanning forest. The
// result is verified against union-find structure in the tests.
type SpanningForest struct {
	// Edges are the chosen edge ids (a spanning forest of g).
	Edges []int64
	// CC is the connected-components result of the same run.
	CC *Result
	// Run carries the simulated-time accounting (the same accounting as
	// CC.Run; every kernel result exposes it under this name).
	Run *pgas.Result
}

// SpanningTree runs the spanning-forest kernel. opts configures the
// collectives exactly as for Coalesced; the offload optimization is
// force-disabled because the hook array's slot 0 is written (vertex 0's
// component never hooks, but packed keys at other slots do not preserve
// the D[0]-is-constant argument for the hook array itself).
//
// Recoverable state (pgas.Registrar): none. The chosen edges live in
// host-side slices and must stay consistent with D across barriers; a
// restored labeling without the matching edge set would double-pick or
// drop tree edges, so after an eviction the kernel recovers by full
// deterministic re-execution.
func SpanningTree(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *SpanningForest {
	if g.N >= 1<<31 {
		panic("cc: SpanningTree requires n < 2^31 for packed hook keys")
	}
	if g.M() >= 1<<32 {
		panic("cc: SpanningTree requires m < 2^32 for packed hook keys")
	}
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	hook := rt.NewSharedArray("Hook", g.N)
	red := pgas.NewOrReducer(rt)

	col := opts.col()
	colHook := *col
	colHook.Offload = false
	compact := opts.compact()
	m := g.M()
	s := rt.NumThreads()
	chosen := make([][]int64, s)
	iterations := 0

	const noHook = int64(1)<<62 - 1

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		live := make([]int64, 0, hi-lo)
		for e := lo; e < hi; e++ {
			live = append(live, e)
		}
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		th.ChargeSeq(sim.CatWork, span)

		gatherIdx := make([]int64, 0, 2*len(live))
		gatherVal := make([]int64, 0, 2*len(live))
		setIdx := make([]int64, 0, len(live))
		setVal := make([]int64, 0, len(live))
		jump := collective.NewJumpScratch(span)
		var graftCache collective.IDCache
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: SpanningTree exceeded %d iterations", maxIterations))
			}
			// Reset this round's hook buckets (own block).
			for i := dLo; i < dHi; i++ {
				hook.StoreRaw(i, noHook)
			}
			th.ChargeSeq(sim.CatWork, span)
			th.Barrier()

			// Fetch endpoint labels of live edges.
			k := len(live)
			gatherIdx = gatherIdx[:0]
			for _, e := range live {
				gatherIdx = append(gatherIdx, int64(g.U[e]), int64(g.V[e]))
			}
			gatherVal = gatherVal[:2*k]
			th.ChargeSeq(sim.CatWork, 2*int64(k))
			if iter == 0 {
				// D is registered nowhere, so round 0 always starts from
				// the identity fill.
				identityGather(th, gatherIdx, gatherVal)
			} else {
				comm.GetD(th, d, gatherIdx, gatherVal, col, &graftCache)
			}

			// Elect hooks: Hook[max(du,dv)] <- min over (min(du,dv), e).
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
				setVal = append(setVal, du<<32|live[j])
				grafted = true
			}
			th.ChargeOps(sim.CatWork, int64(k))
			comm.SetDMin(th, hook, setIdx, setVal, &colHook, nil)

			// Apply winning hooks on owned slots, recording tree edges.
			for r := dLo; r < dHi; r++ {
				key := hook.LoadRaw(r)
				if key == noHook {
					continue
				}
				target := key >> 32
				e := key & 0xffffffff
				d.StoreRaw(r, target)
				chosen[th.ID] = append(chosen[th.ID], e)
				th.ChargeIrregular(sim.CatCopy, 2, span)
			}
			th.ChargeSeq(sim.CatWork, span)
			th.Barrier()

			// Collapse to rooted stars.
			comm.PointerJump(th, d, col, red, jump, dLo)

			if compact {
				w := 0
				for j := 0; j < k; j++ {
					if gatherVal[2*j] != gatherVal[2*j+1] {
						live[w] = live[j]
						w++
					}
				}
				if w != k {
					live = live[:w]
					graftCache.Invalidate()
				}
				th.ChargeSeq(sim.CatWork, int64(k))
			}

			if !red.Reduce(th, grafted) {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})

	sf := &SpanningForest{CC: finish(d, iterations, run), Run: run}
	for _, part := range chosen {
		sf.Edges = append(sf.Edges, part...)
	}
	return sf
}
