package cc

import (
	"math"

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

// Forest materializes the chosen edges as a graph on g's vertex set — the
// shape euler.Tour consumes, whose component roots are CC.Labels.
func (sf *SpanningForest) Forest(g *graph.Graph) *graph.Graph {
	f := &graph.Graph{N: g.N, U: make([]int32, len(sf.Edges)), V: make([]int32, len(sf.Edges))}
	for i, e := range sf.Edges {
		f.U[i], f.V[i] = g.U[e], g.V[e]
	}
	return f
}

// noHook is the empty hook bucket. Every packed key is below it: labels
// are vertex ids and n < 2^31 (SpanningTree checks), so the label field
// never reaches 2^31 - 1.
const noHook = int64(math.MaxInt64)

// unpackHook reads a hook key as the live list's hook pass (EdgeList.Hooks)
// packs it, label<<32 | e: a bucket's candidates order by the label they
// would hook under, then by edge id, so the winning SetDMin names its edge.
func unpackHook(key int64) (label, e int64) { return key >> 32, key & 0xffffffff }

// SpanningTree runs the spanning-forest kernel. opts configures the
// collectives exactly as for Coalesced; the offload optimization is
// force-disabled because the hook array's slot 0 is written (vertex 0's
// component never hooks, but packed keys at other slots do not preserve
// the D[0]-is-constant argument for the hook array itself).
//
// Recoverable state (pgas.Register): none. The chosen edges live in
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
	lay := newSpread(g.N)
	hook := rt.NewSharedArray("Hook", g.N)
	red := pgas.NewReducer(rt)

	col := opts.col()
	colHook := *col
	colHook.Offload = false
	live := comm.NewLiveEdges(opts.compact(), false, d, lay.place)
	chosen := make([][]int64, rt.NumThreads())

	run := rt.Run(func(th *pgas.Thread) {
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		lay.fill(d.Raw(), dLo, dHi)
		th.ChargeSeq(sim.CatWork, span)
		th.ChargeOps(sim.CatWork, span)
		// Empty the hook buckets (own block) once; the apply pass
		// empties each bucket it reads from then on.
		for i := dLo; i < dHi; i++ {
			hook.StoreRaw(i, noHook)
		}
		th.ChargeSeq(sim.CatWork, span)

		el := live.List(th, g.U, g.V, true)
		th.Barrier()

		// As in Coalesced, a round gathers and elects, Hook[pos(max(du,dv))]
		// <- min over (min(du,dv), e); the next one opens by applying the
		// election and collapsing to rooted stars.
		red.Loop(th, "cc.SpanningTree", maxIterations, func(iter int) bool {
			if iter > 0 {
				el.SetDMin(th, hook, &colHook)

				// Apply winning hooks on owned slots, recording tree
				// edges: one read-modify-write pass over the block that
				// empties every bucket it applies (the next round's
				// SetDMin starts after the barrier below), writing D in
				// order.
				applied := int64(0)
				for r := dLo; r < dHi; r++ {
					key := hook.LoadRaw(r)
					if key == noHook {
						continue
					}
					hook.StoreRaw(r, noHook)
					target, e := unpackHook(key)
					d.StoreRaw(r, target)
					chosen[th.ID] = append(chosen[th.ID], e)
					applied++
				}
				th.ChargeSeq(sim.CatWork, span)
				th.ChargeSeq(sim.CatCopy, applied)
				th.Barrier()

				// Collapse to rooted stars.
				comm.PointerJump(th, d, col, red, el.SlabIdx, el.SlabVal, lay.place)
				el.Compact(th)
			}

			// Fetch endpoint labels of live edges. D is registered nowhere,
			// so round 0 always starts from the identity fill.
			el.Gather(th, d, col, iter == 0)
			return el.Hooks(th)
		})
	})

	sf := &SpanningForest{CC: finish(lay.labels(d.Raw()), run), Run: run}
	for _, part := range chosen {
		sf.Edges = append(sf.Edges, part...)
	}
	return sf
}
