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
//   - SV, FastSV and the LiuTarjan variants are one hook-and-jump round
//     (labelRounds) with an interchangeable hookRule.
//
// All kernels maintain the invariant that labels only decrease from the
// identity labeling (grafts and shortcuts are minimum writes), which makes
// the racy shared-memory executions convergent and the results exact; every
// kernel's output is verified against sequential union-find in the tests.
package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// maxIterations bounds kernel iterations; the kernels converge in
// O(log n) rounds, so hitting the bound indicates a bug and panics.
const maxIterations = 512

// Checkpoint registration names of the label kernels' D arrays. The
// per-entry-point names keep snapshots from different kernels in one
// supervised body from contaminating each other; FastSV, the Liu-Tarjan
// variants and Incremental name theirs beside their kernels.
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
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// Options configures the collective-based kernels. Nil Options (or a nil
// Col field) select Defaults().
type Options struct {
	// Col configures the collectives (virtual threads, circular,
	// localcpy, id, offload). Nil means collective.Defaults().
	Col *collective.Options
	// Compact filters edges whose endpoints already share a component
	// from the live list each iteration (§V).
	Compact bool
}

// Defaults returns the configuration selected when a caller passes nil
// Options: base collectives, no compaction.
func Defaults() *Options { return &Options{Col: collective.Defaults()} }

// Validate reports whether o is a usable configuration; nil is valid (it
// selects Defaults).
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	return o.Col.Validate()
}

func (o *Options) col() *collective.Options {
	if o == nil {
		return collective.Defaults()
	}
	return collective.Sanitize(o.Col, true)
}

func (o *Options) compact() bool { return o != nil && o.Compact }

// finish converts a converged D array into a Result. The collective
// kernels terminate with D fully collapsed to rooted stars; the naive
// kernel's asynchronous short-cutting can leave residual parent chains
// (a race the paper's arbitrary-CRCW model permits), so labels are
// resolved by walking D to its roots — every kernel maintains D[i] <= i,
// so walks strictly decrease and terminate.
func finish(d *pgas.SharedArray, iters int, run *pgas.Result) *Result {
	parent := append([]int64(nil), d.Raw()...)
	for i := range parent {
		r := int64(i)
		for parent[r] != r {
			r = parent[r]
		}
		// Path-compress the walked chain for linear total work.
		j := int64(i)
		for parent[j] != r {
			j, parent[j] = parent[j], r
		}
	}
	labels := seq.Canonical(parent)
	return &Result{
		Labels:     labels,
		Components: seq.CountComponents(labels),
		Iterations: iters,
		Run:        run,
	}
}

// Naive runs the literal translation of the shared-memory CC code: every
// irregular access is an individual one-sided operation. With a
// single-node runtime this is the paper's CC-SMP baseline; with a
// multi-node runtime it is CC-UPC of Figure 2.
//
// Recoverable state (pgas.Registrar): D, under CkptNaiveD — monotone
// labels over a fully rescanned edge list, so a restored snapshot (also
// one re-blocked over fewer threads) converges to the same answer.
func Naive(rt *pgas.Runtime, g *graph.Graph) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	pgas.Register(rt, CkptNaiveD, d)
	red := pgas.NewOrReducer(rt)
	m := g.M()
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		// Initialize own block of D (charged; data already set).
		dLo, dHi := d.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, dHi-dLo)
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: Naive exceeded %d iterations", maxIterations))
			}
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

// Coalesced runs CC rewritten with the collectives: grafting fetches both
// endpoint labels with one GetD and hooks with one SetDMin; short-cutting
// becomes synchronous pointer jumping in lock step ("we insert artificial
// synchronizations into pointer-jumping", §IV.A) so it coalesces too.
//
// Round 0 starts from the identity fill, where every endpoint is its own
// label: it copies instead of gathering (identityGather) unless Register
// restored a snapshot.
//
// Without edge compaction the graft gather requests the same 2m endpoint
// indices every iteration, so the kernel builds one collective.Plan when
// it first gathers and re-executes it per iteration: the grouping sort and
// matrix publish are paid once for the whole run instead of once per
// iteration, with bit-identical labels. Compaction shrinks the request
// vector — the endpoint pairs, compacted in place — so that variant stays
// on the one-shot path.
//
// Recoverable state (pgas.Registrar): D, under CkptCoalescedD, for the
// same reason as Naive.
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	identity := !pgas.Register(rt, CkptCoalescedD, d)
	red := pgas.NewOrReducer(rt)
	col := opts.col()
	compact := opts.compact()
	graftPlan := comm.NewPlan()
	m := g.M()
	iterations := 0

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := th.Span(m)
		dLo, dHi := d.ThreadCover(th.ID)
		span := dHi - dLo
		th.ChargeSeq(sim.CatWork, span)

		// The live edges as (u, v) endpoint pairs: the graft gather's
		// request vector.
		ends := make([]int64, 0, 2*(hi-lo))
		for e := lo; e < hi; e++ {
			ends = append(ends, int64(g.U[e]), int64(g.V[e]))
		}
		th.ChargeSeq(sim.CatWork, int64(len(ends)))
		labels := make([]int64, len(ends))
		setIdx := make([]int64, 0, hi-lo)
		setVal := make([]int64, 0, hi-lo)
		jump := collective.NewJumpScratch(span)
		planned := false
		th.Barrier()

		for iter := 0; ; iter++ {
			if iter >= maxIterations {
				panic(fmt.Sprintf("cc: Coalesced exceeded %d iterations", maxIterations))
			}
			// Fetch both endpoint labels of every live edge.
			labels = labels[:len(ends)]
			switch {
			case iter == 0 && identity:
				identityGather(th, ends, labels)
			case compact:
				comm.GetD(th, d, ends, labels, col, nil)
			default:
				// The live set never shrinks: the endpoint request vector
				// is identical every iteration, so build the plan once and
				// reuse it for every graft gather.
				if !planned {
					graftPlan.PlanRequests(th, d, ends, col, nil)
					planned = true
				}
				graftPlan.GetD(th, d, labels)
			}

			// Build the hook list: D[max(du,dv)] <- min(du,dv).
			grafted := false
			setIdx, setVal = setIdx[:0], setVal[:0]
			for j := 0; j < len(labels); j += 2 {
				du, dv := labels[j], labels[j+1]
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
			th.ChargeOps(sim.CatWork, int64(len(labels)/2))
			comm.SetDMin(th, d, setIdx, setVal, col, nil)

			// Synchronous pointer jumping until all trees are rooted
			// stars.
			comm.PointerJump(th, d, col, red, jump, dLo)

			// Compact: an edge whose endpoints shared a label this
			// iteration is dead forever (labels merge monotonically).
			if compact {
				w := 0
				for j := 0; j < len(labels); j += 2 {
					if labels[j] != labels[j+1] {
						ends[w], ends[w+1] = ends[j], ends[j+1]
						w += 2
					}
				}
				th.ChargeSeq(sim.CatWork, int64(len(ends)))
				ends = ends[:w]
			}

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

// identityGather is the gather out[j] = D[idx[j]] against an
// identity-filled D: every index is its own label, so the answer is a
// local copy and no collective runs. Charged as the copy it is.
func identityGather(th *pgas.Thread, idx, out []int64) {
	copy(out, idx)
	th.ChargeSeq(sim.CatCopy, int64(len(idx)))
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
	grandparents: true, opsPerEdge: 2, perCallSort: true,
	// D[D[v]] <- min D[u] and symmetrically. The grandparent value prunes
	// requests that cannot win.
	hooks: func(_, par, gp, setIdx, setVal []int64) ([]int64, []int64) {
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
