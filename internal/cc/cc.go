// Package cc implements the paper's connected-components kernels:
//
//   - Naive: the literal PGAS translation of the shared-memory CC code
//     (Figure 1) — per-edge one-sided reads and writes. On a single node it
//     *is* the paper's CC-SMP baseline; on a cluster it is the CC-UPC code
//     whose Figure 2 performance motivates everything else.
//   - Coalesced: CC rewritten with the GetD/SetD/SetDMin collectives and
//     synchronous pointer jumping (§IV.A), with the compact optimization
//     and all collective options.
//   - SV: the classic Shiloach-Vishkin algorithm rewritten with
//     collectives (Figure 3's third series).
//   - SV and FastSV are one hook-and-jump round (labelRounds) with an
//     interchangeable hookRule. The tests add three test-only
//     Liu-Tarjan rules (liutarjan_test.go) on the same round.
//
// All kernels maintain the invariant that labels only decrease from the
// identity labeling (grafts and shortcuts are minimum writes), which makes
// Naive's arbitrary-CRCW interleaving convergent and the results exact;
// every kernel's output is verified against sequential union-find in the
// tests.
package cc

import (
	"fmt"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// maxIterations bounds kernel iterations; the kernels converge in
// O(log n) rounds, so hitting the bound indicates a bug and panics.
const maxIterations = 512

// Checkpoint registration names of the label kernels' D arrays. The
// per-entry-point names keep snapshots from different kernels in one
// supervised body from contaminating each other; FastSV, the tests'
// Liu-Tarjan rules and Incremental name theirs beside their kernels.
const (
	CkptNaiveD     = "cc.naive.D"
	CkptCoalescedD = "cc.coalesced.D"
	CkptSVD        = "cc.sv.D"
)

// Result is the outcome of one CC run.
type Result struct {
	// Labels is the canonical component labeling (smallest vertex id per
	// component).
	Labels []int64
	// Components is the number of connected components.
	Components int64
	// Iterations is the number of outer graft/shortcut rounds.
	Iterations int
	// Merged is Incremental's (old root, new root) pairs, by old root.
	Merged [][2]int64
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// Options configures the collective-based kernels. Nil Options (or a nil
// Col field) select base collectives, no compaction.
type Options struct {
	// Col configures the collectives (virtual threads, circular,
	// localcpy, id, offload). Nil means collective.Base().
	Col *collective.Options
	// Compact drops edges inside one component from the live list (§V).
	// Coalesced and SpanningTree read it; SV and FastSV do not.
	Compact bool
}

func (o *Options) col() *collective.Options {
	if o == nil {
		return collective.Base()
	}
	return collective.Sanitize(o.Col, true)
}

func (o *Options) compact() bool { return o != nil && o.Compact }

// finish resolves a converged label slice in place and reports it. Every
// kernel writes D only by minimum writes from the identity fill, so
// D[i] <= i always holds, a tree's root is its smallest vertex, and the
// resolved slice *is* the canonical component-minimum labeling with one
// root (labels[i] == i) per component — no renaming pass, no recount. The
// collective kernels end collapsed; Naive's asynchronous short-cutting can
// leave parent chains (a race the paper's arbitrary-CRCW model permits).
// Either way one ascending pass resolves everything: when vertex i is
// reached every smaller vertex already points at its root, so i's parent's
// label is i's root. The pass checks the invariant it relies on — a label
// outside [0, i] panics naming the vertex instead of mislabelling — and
// writes nothing to a slice that is already collapsed. The round count is
// the run's.
func finish(labels []int64, run *pgas.Result) *Result {
	var components int64
	for i, p := range labels {
		switch {
		case uint64(p) > uint64(i):
			panic(invariantBroken(int64(i), p))
		case p == int64(i):
			components++
		case labels[p] != p:
			labels[i] = labels[p]
		}
	}
	return &Result{Labels: labels, Components: components, Iterations: run.Rounds, Run: run}
}

// invariantBroken is the panic text of a label outside [0, i] at vertex i.
func invariantBroken(i, label int64) string {
	return fmt.Sprintf("cc: vertex %d carries label %d: the D[i] <= i invariant is broken", i, label)
}

// Naive runs the literal translation of the shared-memory CC code: every
// irregular access is an individual one-sided operation. With a
// single-node runtime this is the paper's CC-SMP baseline; with a
// multi-node runtime it is CC-UPC of Figure 2.
//
// Recoverable state (pgas.Register): D, under CkptNaiveD — monotone
// labels over a fully rescanned edge list, so a restored snapshot (also
// one re-blocked over fewer threads) converges to the same answer.
func Naive(rt *pgas.Runtime, g *graph.Graph) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptNaiveD, d)
	red := pgas.NewReducer(rt)
	m := g.M()

	run := rt.RunOneSided(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		// Initialize own block of D (charged; data already set).
		dLo, dHi := d.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, dHi-dLo)
		th.Barrier()

		red.Loop(th, "cc.Naive", maxIterations, func(int) bool {
			// Graft phase: inspect every local edge and hook the
			// larger root below the smaller label.
			grafted := false
			th.ChargeSeq(sim.CatWork, 2*(hi-lo)) // stream the edge list
			for e := lo; e < hi; e++ {
				u, v := int64(g.U[e]), int64(g.V[e])
				du := th.Get(d, u, sim.CatComm)
				dv := th.Get(d, v, sim.CatComm)
				if du == dv {
					continue
				}
				if du > dv {
					du, dv = dv, du
				}
				// Graft under the constraint D[u] < D[v], writing
				// only when dv is (still) a root.
				ddv := th.Get(d, dv, sim.CatComm)
				if ddv == dv && th.PutMin(d, dv, du, sim.CatComm) {
					grafted = true
				}
			}
			th.Barrier()

			// Asynchronous short-cutting: collapse every owned vertex
			// all the way to its root (no barriers inside).
			for i := dLo; i < dHi; i++ {
				for {
					di := th.Get(d, i, sim.CatComm)
					ddi := th.Get(d, di, sim.CatComm)
					if di == ddi {
						break
					}
					th.PutMin(d, i, ddi, sim.CatComm)
				}
			}
			return grafted
		})
	})
	return finish(slices.Clone(d.Raw()), run)
}

// Coalesced runs CC rewritten with the collectives: grafting fetches both
// endpoint labels with one gather and hooks with one SetDMin; short-cutting
// becomes synchronous pointer jumping in lock step ("we insert artificial
// synchronizations into pointer-jumping", §IV.A) so it coalesces too.
//
// The graft gather goes through the run's collective.LiveEdges: round 0
// copies instead of gathering unless Register restored a snapshot, a list
// that is not compacted builds one Plan and re-executes it, and a
// compacted one shrinks in place — with bit-identical labels either way.
// D is kept in the spread layout (vertex v at pos(v), see spread), so the
// low ids the labels converge on are owned by every thread: the hook
// target, PointerJump's request and the live-edge list's endpoints and
// roots are positions, and the result is read back through pos.
//
// Recoverable state (pgas.Register): D, under CkptCoalescedD, for the
// same reason as Naive.
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	lay := newSpread(g.N) // refuses n > 2^31 before D is allocated
	d := rt.NewSharedArray("D", g.N)
	// A wire runtime's Register seeds its snapshots of remote blocks from D:
	// fill it first there; in process each thread fills its own block.
	hostFill := !rt.Transport().Shared()
	if hostFill {
		lay.fill(d.Raw(), 0, g.N)
	}
	col := opts.col()
	identity := !pgas.Register(rt, CkptCoalescedD, d)
	red := pgas.NewReducer(rt)
	live := comm.NewLiveEdges(opts.compact(), false, d, lay.place)

	run := rt.Run(func(th *pgas.Thread) {
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		if identity && !hostFill {
			lay.fill(d.Raw(), dLo, dHi)
		}
		th.ChargeSeq(sim.CatWork, span)
		th.ChargeOps(sim.CatWork, span)
		el := live.List(th, g.U, g.V, false)
		th.Barrier()

		// Rounds until no edge joins two trees: gather every live edge's
		// endpoint labels and build the hook list D[pos(max(du,dv))] <-
		// min(du,dv), compacting the list in the same pass. The next round
		// opens by hooking and collapsing every tree to a rooted star, so
		// its endpoint labels are roots again; the round that builds no
		// hook ends at its gather.
		red.Loop(th, "cc.Coalesced", maxIterations, func(iter int) bool {
			if iter > 0 {
				el.SetDMin(th, d, col)
				comm.PointerJump(th, d, col, red, el.SlabIdx, el.SlabVal, lay.place)
				el.Compact(th)
			}
			el.Gather(th, d, col, iter == 0 && identity)
			return el.Hooks(th)
		})
	})
	return finish(lay.labels(d.Raw()), run)
}

// SV runs the Shiloach-Vishkin algorithm rewritten with collectives: per
// iteration one grandparent fetch, conditional min-hooks, and a single
// pointer-jump level (rather than CC's full collapse). More collective
// calls per round make it slower than Coalesced, reproducing Figure 3's
// ordering. The hook rule is the monotone minimum variant: lower labels
// always win, which preserves SV's O(log n)-style convergence while being
// exact under concurrent (priority CRCW) writes.
func SV(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	return labelRounds(rt, comm, g, opts, &svRule)
}

var svRule = hookRule{
	name: "cc/sv", ckpt: CkptSVD,
	perCallSort: true,
	// D[D[v]] <- min D[u] and symmetrically. The grandparent value prunes
	// requests that cannot win.
	hooks: func(_ []int32, par, gp, setIdx, setVal []int64) ([]int64, []int64) {
		for j := 0; j < len(par); j += 2 {
			du, dv := par[j], par[j+1]
			ddu, ddv := gp[j], gp[j+1]
			if du < ddv {
				setIdx = append(setIdx, dv)
				setVal = append(setVal, du)
			}
			if dv < ddu {
				setIdx = append(setIdx, du)
				setVal = append(setVal, dv)
			}
		}
		return setIdx, setVal
	},
}
