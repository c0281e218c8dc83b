// Package mst implements the paper's minimum-spanning-tree kernels: the
// parallel Borůvka variant of §II with supervertex labels instead of graph
// compaction.
//
//   - Naive: the literal PGAS translation — per-edge one-sided reads and a
//     fine-grained lock per supervertex guarding its minimum-edge update.
//     On one node it is the paper's MST-SMP baseline; on a cluster it is
//     the implementation the paper "had to abort after hours" (§III) —
//     here it merely accrues an enormous simulated time.
//   - Coalesced: the rewritten kernel in which the SetDMin collective
//     (priority concurrent write) replaces the locks entirely (§IV.A).
//
// Edges are ordered by the packed key (weight << 32 | edgeID); the strict
// total order makes the minimum spanning forest unique, so every kernel
// returns exactly the same forest as sequential Kruskal — which the tests
// assert.
package mst

import (
	"fmt"
	"math"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// maxIterations bounds Borůvka rounds (components at least halve per
// round, so hitting this means a bug).
const maxIterations = 256

// noEdge is the MinE sentinel: no candidate edge seen.
const noEdge = int64(math.MaxInt64)

// Result is the outcome of one MST run.
type Result struct {
	// Edges are the chosen edge ids (unordered).
	Edges []int64
	// Weight is the total forest weight.
	Weight uint64
	// Iterations is the number of Borůvka rounds.
	Iterations int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// Options configures the coalesced kernel. Nil Options (or a nil Col
// field) select base collectives, no compaction.
type Options struct {
	// Col configures the collectives. The offload optimization is
	// CC-specific (it relies on D[0] being constant, which Borůvka
	// hooking violates) and is force-disabled here.
	Col *collective.Options
	// Compact filters settled edges from the live list each round.
	Compact bool
}

func (o *Options) col() *collective.Options {
	if o == nil {
		return collective.Sanitize(nil, false)
	}
	return collective.Sanitize(o.Col, false)
}

func (o *Options) compact() bool { return o != nil && o.Compact }

// pack combines an edge's weight and id into its strict-total-order key.
func pack(w uint32, e int64) int64 { return int64(w)<<32 | e }

// unpack returns the edge id of a packed key.
func unpack(key int64) int64 { return key & 0xffffffff }

func checkInput(g *graph.Graph) {
	if !g.Weighted() {
		panic("mst: input graph is unweighted")
	}
	// Strictly below 2^32-1 so the maximum packed key (weight 2^31-1,
	// edge id 2^32-2) stays below the noEdge sentinel (MaxInt64).
	if g.M() >= 1<<32-1 {
		panic(fmt.Sprintf("mst: edge count %d overflows packed keys", g.M()))
	}
	for i, w := range g.W {
		if w >= 1<<31 {
			panic(fmt.Sprintf("mst: weight %d of edge %d overflows packed keys", w, i))
		}
	}
}

// Naive runs the literal translation: per-edge Get of both endpoint
// labels, lock-guarded AtomicMin per supervertex, owner-side grafting, and
// asynchronous short-cutting — every irregular access an individual
// one-sided operation. Recovery: by re-execution, as for Coalesced.
func Naive(rt *pgas.Runtime, g *graph.Graph) *Result {
	checkInput(g)
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	minE := rt.NewSharedArray("MinE", g.N)
	red := pgas.NewReducer(rt)
	s := rt.NumThreads()
	chosen := make([][]int64, s)
	m := g.M()

	run := rt.RunOneSided(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		dLo, dHi := d.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, dHi-dLo)
		th.Barrier()

		red.Loop(th, "mst.Naive", maxIterations, func(int) bool {
			// Reset this round's candidate buckets (own block).
			for i := dLo; i < dHi; i++ {
				minE.StoreRaw(i, noEdge)
			}
			th.ChargeSeq(sim.CatWork, dHi-dLo)
			th.Barrier()

			// Step 1: per-supervertex minimum-edge election, guarded by
			// a fine-grained lock per supervertex (AtomicMin charges the
			// lock).
			th.ChargeSeq(sim.CatWork, 3*(hi-lo))
			for e := lo; e < hi; e++ {
				u, v := int64(g.U[e]), int64(g.V[e])
				du := th.Get(d, u, sim.CatComm)
				dv := th.Get(d, v, sim.CatComm)
				if du == dv {
					continue
				}
				key := pack(g.W[e], int64(e))
				th.AtomicMin(minE, du, key, sim.CatComm)
				th.AtomicMin(minE, dv, key, sim.CatComm)
			}
			th.Barrier()

			// Step 2: owners scan their supervertex buckets, claim
			// forest edges (deduplicating mutual pairs), and record
			// pending hooks. This phase only reads D and MinE; the
			// hooks apply after a barrier so claims never observe
			// half-applied grafts.
			found := false
			var hookR, hookTo []int64
			for r := dLo; r < dHi; r++ {
				key := minE.LoadRaw(r)
				th.ChargeIrregular(sim.CatWork, 1, dHi-dLo)
				if key == noEdge {
					continue
				}
				found = true
				e := unpack(key)
				du := th.Get(d, int64(g.U[e]), sim.CatComm)
				dv := th.Get(d, int64(g.V[e]), sim.CatComm)
				other := du + dv - r
				otherKey := th.Get(minE, other, sim.CatComm)
				mutual := otherKey == key
				if !mutual || r < other {
					chosen[th.ID] = append(chosen[th.ID], e)
				}
				// Hook along the chosen edge; on a mutual pair only the
				// larger root hooks (breaking the 2-cycle).
				if !mutual || r > other {
					hookR = append(hookR, r)
					hookTo = append(hookTo, other)
				}
			}
			th.Barrier()

			// Step 3: apply the grafts (each r is owned by this thread).
			for j, r := range hookR {
				th.Put(d, r, hookTo[j], sim.CatComm)
			}
			th.Barrier()

			// Short-cut every owned vertex to its root (asynchronous).
			for i := dLo; i < dHi; i++ {
				for {
					di := th.Get(d, i, sim.CatComm)
					ddi := th.Get(d, di, sim.CatComm)
					if di == ddi {
						break
					}
					th.Put(d, i, ddi, sim.CatComm)
				}
			}
			return found
		})
	})
	return collect(g, chosen, run)
}

// Coalesced runs the rewritten kernel: endpoint labels arrive through one
// gather of the run's collective.LiveEdges (a reused Plan when compaction
// is off — phase 1 of Algorithm 2 paid once per run — a shrinking one-shot
// request when it is on), the minimum-edge election is a single SetDMin
// (priority concurrent write — no locks), and short-cutting is synchronous
// pointer jumping.
//
// Recoverable state (pgas.Register): none. Borůvka rounds accumulate
// chosen edges in host-side slices outside any shared array; a restored
// component labeling without the matching edge set would double-pick or
// drop tree edges. After an eviction MST recovers by full deterministic
// re-execution.
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	checkInput(g)
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	minE := rt.NewSharedArray("MinE", g.N)
	red := pgas.NewReducer(rt)
	col := opts.col()
	live := comm.NewLiveEdges(opts.compact(), false, nil, nil)
	chosen := make([][]int64, rt.NumThreads())

	run := rt.Run(func(th *pgas.Thread) {
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		th.ChargeSeq(sim.CatWork, span)

		el := live.List(th, g.U, g.V, true)
		// The election's requests lend their slab to PointerJump's answers;
		// its indices take a slab of their own.
		k := len(el.Ends)
		slab, jumpIdx := make([]int64, max(2*k, int(span))), make([]int32, 2*span)
		setIdx, setVal := slab[:0:k], slab[k:k:2*k]
		// The owned buckets that hold a candidate this round, at most span:
		// their vertices and keys, the labels of the candidate edges'
		// endpoints, and the peer bucket each would hook to.
		candR, candKey := make([]int64, 0, span), make([]int64, 0, span)
		endpointIdx, endpointLab := make([]int64, 0, 2*span), make([]int64, 2*span)
		otherIdx, otherKey := make([]int64, span), make([]int64, span)
		th.Barrier()

		red.Loop(th, "mst.Coalesced", maxIterations, func(iter int) bool {
			// Reset this round's candidate buckets (own block).
			for i := dLo; i < dHi; i++ {
				minE.StoreRaw(i, noEdge)
			}
			th.ChargeSeq(sim.CatWork, span)
			th.Barrier()

			// Fetch both endpoint labels of every live edge. D is
			// registered nowhere, so round 0 always starts from the
			// identity fill.
			el.Gather(th, d, col, iter == 0)
			labels := el.Labels

			// Minimum-edge election: one priority concurrent write per
			// live endpoint pair.
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j, e := range el.IDs {
				du, dv := labels[2*j], labels[2*j+1]
				if du == dv {
					continue
				}
				key := pack(g.W[e], int64(e))
				setIdx = append(setIdx, du, dv)
				setVal = append(setVal, key, key)
			}
			th.ChargeOps(sim.CatWork, 2*int64(len(el.IDs)))
			comm.SetDMin(th, minE, setIdx, setVal, col, nil)

			// Scan owned buckets; claim edges and hook. The labels and
			// the peer bucket values arrive through two more GetDs.
			candR, candKey = candR[:0], candKey[:0]
			for r := dLo; r < dHi; r++ {
				key := minE.LoadRaw(r)
				if key != noEdge {
					candR = append(candR, r)
					candKey = append(candKey, key)
				}
			}
			th.ChargeSeq(sim.CatWork, span)
			found := len(candR) > 0

			endpointIdx = endpointIdx[:0]
			for _, key := range candKey {
				e := unpack(key)
				endpointIdx = append(endpointIdx, int64(g.U[e]), int64(g.V[e]))
			}
			endpointLab = endpointLab[:len(endpointIdx)]
			comm.GetD(th, d, endpointIdx, endpointLab, col, nil)

			otherIdx, otherKey = otherIdx[:len(candR)], otherKey[:len(candR)]
			for j, r := range candR {
				otherIdx[j] = endpointLab[2*j] + endpointLab[2*j+1] - r
			}
			comm.GetD(th, minE, otherIdx, otherKey, col, nil)

			for j, r := range candR {
				key := candKey[j]
				e := unpack(key)
				other := otherIdx[j]
				mutual := otherKey[j] == key
				if !mutual || r < other {
					chosen[th.ID] = append(chosen[th.ID], e)
				}
				if !mutual || r > other {
					// r is owned by this thread: hooking is a local
					// store.
					d.StoreRaw(r, other)
					th.ChargeIrregular(sim.CatCopy, 1, span)
				}
			}
			th.ChargeOps(sim.CatWork, 3*int64(len(candR)))
			th.Barrier()

			// Synchronous pointer jumping until rooted stars. Unlike CC's
			// hooks, Borůvka hooks can point upward in label order, but
			// the hook digraph is acyclic after mutual-pair breaking, so
			// plain jumping converges.
			comm.PointerJump(th, d, col, red, jumpIdx, slab, nil)
			el.Compact(th)
			return found
		})
	})
	return collect(g, chosen, run)
}

// collect merges per-thread edge choices into the final Result.
func collect(g *graph.Graph, chosen [][]int64, run *pgas.Result) *Result {
	res := &Result{Iterations: run.Rounds, Run: run}
	for _, part := range chosen {
		for _, e := range part {
			res.Edges = append(res.Edges, e)
			res.Weight += uint64(g.W[e])
		}
	}
	return res
}
