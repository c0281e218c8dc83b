package cc

import (
	"math/bits"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/unionfind"
)

// MergeCGM is the communication-efficient connected-components algorithm
// of the family the paper's conclusion argues against (§I, §II, §VI): each
// thread first reduces its local edges to a spanning forest with
// sequential union-find, then forests merge pairwise up a binomial tree —
// O(log s) communication rounds, each shipping at most n-1 edges — and the
// root finally labels every vertex and broadcasts the result.
//
// The structure trades communication rounds for exactly the costs the
// paper criticizes: every merge round halves the number of working
// threads (the survivors re-run union-find over up to 2(n-1) edges of
// *someone else's* forest, with the attendant cache misses), until the
// last round runs entirely on thread 0 while s-1 threads idle at the
// barrier. Compare against Coalesced via the ccmerge experiment.
//
// Recoverable state (pgas.Register): none. Merge rounds accumulate forest
// edges in host-side slices outside any shared array, which no superstep
// cut captures; after an eviction MergeCGM recovers by full deterministic
// re-execution.
func MergeCGM(rt *pgas.Runtime, g *graph.Graph) *Result {
	n := g.N
	m := g.M()
	s := rt.NumThreads()
	// forests[i] holds thread i's current forest as an edge list of
	// (u, v) pairs, interleaved. Written by its owner, read by its merge
	// partner after a barrier.
	forests := make([][]int64, s)
	labels := make([]int64, n)

	run := rt.Run(func(th *pgas.Thread) {
		model := th.Runtime().Model()
		lo, hi := th.Span(m)

		// Local phase: spanning forest of the owned edge block.
		ds := unionfind.New(n)
		var local []int64
		touches := int64(0)
		for e := lo; e < hi; e++ {
			u, v := g.U[e], g.V[e]
			touches += 4
			if ds.Union(u, v) {
				local = append(local, int64(u), int64(v))
			}
		}
		th.ChargeSeq(sim.CatWork, 2*(hi-lo))
		ns, misses := model.IrregularAccess(touches, n)
		th.Clock.Charge(sim.CatIrregular, ns)
		th.Clock.CacheMisses += misses
		forests[th.ID] = local
		th.Barrier()

		// Merge phase: binomial-tree reduction. In round r, threads whose
		// id is a multiple of 2^(r+1) absorb the forest of the partner
		// 2^r above them; everyone else has finished working and waits.
		for stride := 1; stride < s; stride *= 2 {
			if th.ID%(2*stride) == 0 {
				partner := th.ID + stride
				if partner < s {
					incoming := forests[partner]
					// One coalesced message carrying the partner's
					// forest.
					if !th.SameNode(partner) {
						th.ChargeMessage(sim.CatComm, int64(len(incoming))*sim.ElemBytes)
					} else {
						th.ChargeSeq(sim.CatComm, int64(len(incoming)))
					}
					// Re-run union-find over the incoming edges; the
					// working set is the full n-vertex parent array.
					touches = 0
					var merged []int64
					for j := 0; j < len(incoming); j += 2 {
						u, v := int32(incoming[j]), int32(incoming[j+1])
						touches += 4
						if ds.Union(u, v) {
							merged = append(merged, int64(u), int64(v))
						}
					}
					ns, misses := model.IrregularAccess(touches, n)
					th.Clock.Charge(sim.CatIrregular, ns)
					th.Clock.CacheMisses += misses
					forests[th.ID] = append(forests[th.ID], merged...)
				}
			}
			th.Barrier()
		}

		// Root phase: thread 0 labels all vertices and broadcasts.
		if th.ID == 0 {
			for i := int64(0); i < n; i++ {
				labels[i] = int64(ds.Find(int32(i)))
			}
			ns, misses := model.IrregularAccess(2*n, n)
			th.Clock.Charge(sim.CatIrregular, ns)
			th.Clock.CacheMisses += misses
			// Broadcast the label array to every other node.
			for peer := 1; peer < rt.Nodes(); peer++ {
				th.ChargeMessage(sim.CatComm, n*sim.ElemBytes)
			}
		}
		th.Barrier()
	})

	// Canonicalize outside the timed region like the other kernels. The
	// merge tree over s threads is ceil(log2 s) rounds deep.
	res := &Result{Iterations: bits.Len(uint(s - 1)), Run: run}
	res.Labels = seq.Canonical(labels)
	res.Components = seq.CountComponents(res.Labels)
	return res
}
