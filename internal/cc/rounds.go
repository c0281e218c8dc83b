package cc

import (
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// hookRule is one point in the hook-and-jump family (Liu & Tarjan's
// framework, of which classic SV and FastSV are the kernels kept; the
// test-only Liu-Tarjan rules in liutarjan_test.go are three more): everything a
// kernel of the family decides for itself. labelRounds owns the rest of
// the round. See docs/MODEL.md for the taxonomy table these fields fill.
type hookRule struct {
	// name is the registry-facing kernel name ("cc/fastsv", ...), reported
	// to roundProbe and in the non-convergence panic.
	name string
	// ckpt is the checkpoint registration name of D; per-rule names keep
	// two kernels run in one supervised body out of each other's snapshots.
	ckpt string
	// perCallSort keeps the endpoint gather on the one-shot GetD (a
	// grouping sort every round) even when the live set is static: classic
	// SV as the paper measured it, Figure 3's third series.
	perCallSort bool
	// hooks appends the round's SetDMin requests. end holds the endpoints
	// of the k live edges as (u, v) pairs, par their gathered parents, gp
	// the parents' parents. Called once per round, never per edge.
	hooks func(end []int32, par, gp, setIdx, setVal []int64) ([]int64, []int64)
}

// roundProbe, when non-nil, receives a snapshot of the label array after
// every labelRounds superstep round. The convergence property tests hook
// it to assert per-round monotonicity and fixpoint stability; production
// runs leave it nil. Thread 0 takes round i's snapshot at the top of round
// i+1, and the last round's once Loop returns: both follow the round's
// change reduction — a barrier — and no thread writes D again before the
// next round's SetDMin serve phase (which waits for all threads, thread 0
// included), so the read is race-free.
var roundProbe func(kernel string, round int, labels []int64)

// labelRounds runs one hook-and-jump kernel to its fixpoint. Rewritten
// with the collectives, one round is
//
//	parents       f(u), f(v)       GetD over the live endpoints
//	grandparents  g(u) = f(f(u))   one GetDCombined on the parent values
//	hooks         rule.hooks       one SetDMin
//	shortcut      D[i] <- D[D[i]]  one GetDCombined + local stores
//
// The endpoint gather goes through the run's collective.LiveEdges, which
// never shrinks: a hook under a non-root can split a pair that gathered
// equal parents, so no rule compacts (docs/MODEL.md). Round 0 starts from
// the identity fill, where parents and grandparents are the endpoints
// themselves: it copies instead of gathering unless Register restored a
// snapshot.
//
// All writes are minimum writes from the identity fill, so labels only
// decrease and the terminal state is the same component-minimum rooted
// stars every monotone kernel converges to: labels are bit-identical
// across the family and to Coalesced. The shortcut and change detection
// are local loops over each thread's ThreadCover block.
//
// Recoverable state (pgas.Register): D, under rule.ckpt. It qualifies
// because D is monotone and every round rescans the live edge list, so any
// quiesced intermediate labeling converges to the same answer — including
// a restored snapshot re-blocked over fewer threads.
func labelRounds(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options, rule *hookRule) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	identity := !pgas.Register(rt, rule.ckpt, d)
	red := pgas.NewReducer(rt)
	col := opts.col()
	live := comm.NewLiveEdges(false, rule.perCallSort, nil, nil)

	run := rt.Run(func(th *pgas.Thread) {
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		block := d.Raw()[dLo:dHi] // this thread's covered labels
		th.ChargeSeq(sim.CatWork, span)

		el := live.List(th, g.U, g.V, false)
		gpVal := make([]int64, len(el.Ends))
		setIdx := make([]int64, 0, len(el.Ends))
		setVal := make([]int64, 0, len(el.Ends))
		jumpIdx := make([]int64, span)
		jumpVal := make([]int64, span)
		prev := make([]int64, span)
		probe := func(round int) {
			if roundProbe != nil && th.ID == 0 {
				roundProbe(rule.name, round, append([]int64(nil), d.Raw()...))
			}
		}
		last := 0
		th.Barrier()

		red.Loop(th, rule.name, maxIterations, func(iter int) bool {
			if iter > 0 {
				probe(iter - 1)
			}
			last = iter
			// Snapshot the covered block to detect global change later.
			copy(prev, block)
			th.ChargeSeq(sim.CatWork, span)

			// Parents of both endpoints.
			fresh := iter == 0 && identity
			el.Gather(th, d, col, fresh)
			parVal := el.Labels

			// Grandparents: labels of the parent values.
			gpVal = gpVal[:len(parVal)]
			if fresh {
				copy(gpVal, parVal)
				th.ChargeSeq(sim.CatCopy, int64(len(parVal)))
			} else {
				comm.GetDCombined(th, d, parVal, gpVal, col)
			}

			// Two charged ops per live edge: parVal holds (u, v) pairs.
			setIdx, setVal = rule.hooks(el.Ends, parVal, gpVal, setIdx[:0], setVal[:0])
			th.ChargeOps(sim.CatWork, int64(len(parVal)))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Shortcut: a single pointer-jump level over the covered block.
			copy(jumpIdx, block)
			th.ChargeSeq(sim.CatCopy, span)
			comm.GetDCombined(th, d, jumpIdx, jumpVal, col)
			for i := int64(0); i < span; i++ {
				if jumpVal[i] != jumpIdx[i] {
					d.StoreRaw(dLo+i, jumpVal[i])
				}
			}
			th.ChargeSeq(sim.CatCopy, 2*span)

			el.Compact(th)

			// Change detection: did any covered label move this round?
			th.ChargeSeq(sim.CatWork, span)
			return !slices.Equal(block, prev)
		})
		probe(last)
	})
	return finish(slices.Clone(d.Raw()), run)
}
