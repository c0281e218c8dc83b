package cc

import (
	"fmt"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// hookRule is one point in the hook-and-jump family (Liu & Tarjan's
// framework, of which classic SV and FastSV are members): everything a
// kernel of the family decides for itself. labelRounds owns the rest of
// the round. See docs/MODEL.md for the taxonomy table these fields fill.
type hookRule struct {
	// name is the registry-facing kernel name ("cc/fastsv", ...), reported
	// to roundProbe and in the non-convergence panic.
	name string
	// ckpt is the checkpoint registration name of D; per-rule names keep
	// two kernels run in one supervised body out of each other's snapshots.
	ckpt string
	// grandparents adds the gather of D[D[u]], D[D[v]] on the parent
	// values; rules without it save one collective per round.
	grandparents bool
	// directWrite marks rules whose hooks also write D[endpoint], not only
	// D[parent]. Such a write can move a single endpoint into the winner's
	// tree while the hook on its old root is gated off or loses the
	// same-collective min race, so the edge gathers equal parents while it
	// is still the only witness joining the loser's old tree. Dropping it
	// would strand that tree with a stale label: direct-write rules never
	// compact.
	directWrite bool
	// opsPerEdge is the charged hook-construction work per live edge.
	opsPerEdge int64
	// perCallSort keeps the endpoint gather on the one-shot GetD (a
	// grouping sort every round) even when the live set is static: classic
	// SV as the paper measured it, Figure 3's third series.
	perCallSort bool
	// hooks appends the round's SetDMin requests. end holds the endpoints
	// of the k live edges as (u, v) pairs, par their gathered parents, gp
	// the parents' parents (nil unless grandparents). Called once per
	// round, never per edge.
	hooks func(end, par, gp, setIdx, setVal []int64) ([]int64, []int64)
}

// roundProbe, when non-nil, receives a snapshot of the label array after
// every labelRounds superstep round. The convergence property tests hook
// it to assert per-round monotonicity and fixpoint stability; production
// runs leave it nil. Thread 0 invokes it right after the round's change
// reduction — a barrier — and no thread writes D again before the next
// round's SetDMin serve phase (which waits for all threads, thread 0
// included), so the read is race-free.
var roundProbe func(kernel string, round int, labels []int64)

// labelRounds runs one hook-and-jump kernel to its fixpoint. Rewritten
// with the collectives, one round is
//
//	parents       f(u), f(v)       GetD over the live endpoints
//	grandparents  g(u) = f(f(u))   one GetD on the parent values (optional)
//	hooks         rule.hooks       one SetDMin
//	shortcut      D[i] <- D[D[i]]  one GetD + local stores
//
// Round 0 starts from the identity fill, where parents and grandparents
// are the endpoints themselves: it copies instead of gathering
// (identityGather) unless Register restored a snapshot.
//
// All writes are minimum writes from the identity fill, so labels only
// decrease and the terminal state is the same component-minimum rooted
// stars every monotone kernel converges to: labels are bit-identical
// across the family and to Coalesced. The shortcut and change detection
// are local loops over ThreadCover, so all partition schemes work
// unchanged.
//
// Recoverable state (pgas.Registrar): D, under rule.ckpt. It qualifies
// because D is monotone and every round rescans the live edge list, so any
// quiesced intermediate labeling converges to the same answer — including
// a restored snapshot re-blocked over fewer threads.
func labelRounds(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options, rule *hookRule) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	identity := !pgas.Register(rt, rule.ckpt, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	// Compaction drops an edge once both endpoints gather equal parents,
	// which is sound only when equal parents imply merged trees.
	compact := opts.compact() && !rule.directWrite
	// Without compaction the live set is static, so the endpoint gather
	// runs through one reused Plan, built when it first gathers; compaction
	// shrinks the request vector, so that variant stays on the one-shot
	// path with a warm IDCache.
	usePlan := !compact && !rule.perCallSort
	endPlan := comm.NewPlan()
	m := g.M()
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		live := make([]int64, 0, hi-lo)
		for e := lo; e < hi; e++ {
			live = append(live, e)
		}
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		block := d.Raw()[dLo:dHi] // this thread's covered labels
		th.ChargeSeq(sim.CatWork, span)

		endIdx := make([]int64, 0, 2*len(live))
		parVal := make([]int64, 0, 2*len(live))
		var gpVal []int64
		if rule.grandparents {
			gpVal = make([]int64, 0, 2*len(live))
		}
		setIdx := make([]int64, 0, 2*len(live))
		setVal := make([]int64, 0, 2*len(live))
		jumpIdx := make([]int64, span)
		jumpVal := make([]int64, span)
		prev := make([]int64, span)
		var endpointCache collective.IDCache
		planned := false
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: %s exceeded %d iterations", rule.name, maxIterations))
			}
			// Snapshot the covered block to detect global change later.
			copy(prev, block)
			th.ChargeSeq(sim.CatWork, span)

			// Parents of both endpoints.
			k := len(live)
			fresh := iter == 0 && identity
			if !usePlan || iter == 0 {
				endIdx = endIdx[:0]
				for _, e := range live {
					endIdx = append(endIdx, int64(g.U[e]), int64(g.V[e]))
				}
				parVal = parVal[:2*k]
				th.ChargeSeq(sim.CatWork, 2*int64(k))
			}
			switch {
			case fresh:
				identityGather(th, endIdx, parVal)
			case usePlan:
				if !planned {
					endPlan.PlanRequests(th, d, endIdx, col, nil)
					planned = true
				}
				endPlan.GetD(th, d, parVal)
			default:
				comm.GetD(th, d, endIdx, parVal, col, &endpointCache)
			}

			// Grandparents: labels of the parent values.
			if rule.grandparents {
				gpVal = gpVal[:2*k]
				if fresh {
					identityGather(th, parVal, gpVal)
				} else {
					comm.GetD(th, d, parVal, gpVal, col, nil)
				}
			}

			setIdx, setVal = rule.hooks(endIdx, parVal, gpVal, setIdx[:0], setVal[:0])
			th.ChargeOps(sim.CatWork, rule.opsPerEdge*int64(k))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Shortcut: a single pointer-jump level over the covered block.
			copy(jumpIdx, block)
			th.ChargeSeq(sim.CatCopy, span)
			comm.GetD(th, d, jumpIdx, jumpVal, col, nil)
			for i := int64(0); i < span; i++ {
				if jumpVal[i] != jumpIdx[i] {
					d.StoreRaw(dLo+i, jumpVal[i])
				}
			}
			th.ChargeSeq(sim.CatCopy, 2*span)

			// Compact dead edges (equal parents mean the endpoints'
			// components have merged, which is permanent).
			if compact {
				w := 0
				for j := 0; j < k; j++ {
					if parVal[2*j] != parVal[2*j+1] {
						live[w] = live[j]
						w++
					}
				}
				if w != k {
					live = live[:w]
					endpointCache.Invalidate()
				}
				th.ChargeSeq(sim.CatWork, int64(k))
			}

			// Change detection: did any covered label move this round?
			th.ChargeSeq(sim.CatWork, span)
			done := !red.Reduce(th, !slices.Equal(block, prev))
			if roundProbe != nil && th.ID == 0 {
				roundProbe(rule.name, iter, append([]int64(nil), d.Raw()...))
			}
			if done {
				if th.ID == 0 {
					iterations = iter + 1
				}
				return
			}
		}
	})
	return finish(d, iterations, run)
}
