package listrank

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// maxRounds bounds pointer-jumping levels; Wyllie converges in
// ceil(log2 n) rounds, so hitting this means a bug.
const maxRounds = 128

// Wyllie runs the classic pointer-jumping list ranking on the PGAS
// runtime with coalesced collectives: per round, every active node fetches
// its successor's successor and rank, then doubles locally. Both fetches
// read at the same indices, so each round builds one collective.Plan over
// the active successors and executes it against S and then R: the
// grouping sort and matrix publish are paid once for the two gathers. The
// invariant
//
//	R[i] = hops from i to S[i]
//
// holds throughout; a node retires once its successor is a tail.
//
// The offload optimization does not apply (no list location is constant),
// so it is force-disabled.
//
// Recoverable state (pgas.Register): none, here and in every other
// ranking kernel of the package. The rank and next arrays must advance in
// lock step — restoring a cut where rank has absorbed a jump that next has
// not (or vice versa) double-counts or loses distance. After an eviction
// list ranking recovers by full deterministic re-execution.
func Wyllie(rt *pgas.Runtime, comm *collective.Comm, l *List, colOpts *collective.Options) *Result {
	col := collective.Sanitize(colOpts, false) // no offload: inapplicable to list ranking
	s := rt.NewSharedArray("S", l.N)
	r := rt.NewSharedArray("R", l.N)
	for i := int64(0); i < l.N; i++ {
		s.StoreRaw(i, int64(l.Succ[i]))
		if int64(l.Succ[i]) != i {
			r.StoreRaw(i, 1)
		}
	}
	red := pgas.NewReducer(rt)
	plan := comm.NewPlan() // rebuilt each round, executed against S and R

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := s.ThreadCover(th.ID)
		span := hi - lo
		th.ChargeSeq(sim.CatWork, 2*span) // local init of S and R

		active := make([]int64, 0, span)
		for i := lo; i < hi; i++ {
			if s.LoadRaw(i) != i {
				active = append(active, i)
			}
		}
		th.ChargeSeq(sim.CatWork, span)

		idx := make([]int64, span)
		ss := make([]int64, span)
		rs := make([]int64, span)
		th.Barrier()

		red.Loop(th, "listrank.Wyllie", maxRounds, func(int) bool {
			k := len(active)
			for j, i := range active {
				idx[j] = s.LoadRaw(i)
			}
			th.ChargeSeq(sim.CatCopy, int64(k))

			// Fetch S[S[i]] and R[S[i]] for every active node.
			plan.PlanRequests(th, s, idx[:k], col, nil)
			plan.GetD(th, s, ss[:k])
			plan.GetD(th, r, rs[:k])

			// Double: R[i] += R[S[i]]; S[i] = S[S[i]]. Retire nodes whose
			// successor was already a tail (no change).
			live := 0
			for j, i := range active {
				if ss[j] == idx[j] {
					continue // S[i] is a tail: i is finished
				}
				r.StoreRaw(i, r.LoadRaw(i)+rs[j])
				s.StoreRaw(i, ss[j])
				active[live] = i
				live++
			}
			active = active[:live]
			th.ChargeSeq(sim.CatCopy, 3*int64(k))
			return live > 0
		})
	})

	return &Result{
		Ranks:  append([]int64(nil), r.Raw()...),
		Rounds: run.Rounds,
		Run:    run,
	}
}

// WyllieNaive is the literal translation: per-element one-sided reads and
// writes, no coalescing — the list-ranking analogue of Figure 2's CC-UPC.
func WyllieNaive(rt *pgas.Runtime, l *List) *Result {
	s := rt.NewSharedArray("S", l.N)
	r := rt.NewSharedArray("R", l.N)
	for i := int64(0); i < l.N; i++ {
		s.StoreRaw(i, int64(l.Succ[i]))
		if int64(l.Succ[i]) != i {
			r.StoreRaw(i, 1)
		}
	}
	red := pgas.NewReducer(rt)

	run := rt.RunOneSided(func(th *pgas.Thread) {
		lo, hi := s.ThreadCover(th.ID)
		span := hi - lo
		th.ChargeSeq(sim.CatWork, 2*span)
		active := make([]int64, 0, span)
		for i := lo; i < hi; i++ {
			if s.LoadRaw(i) != i {
				active = append(active, i)
			}
		}
		ss := make([]int64, span)
		rs := make([]int64, span)
		th.Barrier()

		red.Loop(th, "listrank.WyllieNaive", maxRounds, func(int) bool {
			// Read phase: fetch every active node's S[S[i]] and R[S[i]]
			// with individual one-sided reads — a synchronous PRAM step,
			// so no writes may interleave.
			for j, i := range active {
				si := th.Get(s, i, sim.CatComm) // local portion, charged
				ss[j] = th.Get(s, si, sim.CatComm)
				rs[j] = th.Get(r, si, sim.CatComm)
			}
			th.Barrier()
			// Write phase: double pointers and ranks.
			w := 0
			for j, i := range active {
				si := s.LoadRaw(i)
				if ss[j] == si {
					continue // successor is a tail: finished
				}
				th.Put(r, i, r.LoadRaw(i)+rs[j], sim.CatComm)
				th.Put(s, i, ss[j], sim.CatComm)
				active[w] = i
				w++
			}
			active = active[:w]
			return w > 0
		})
	})

	return &Result{Ranks: append([]int64(nil), r.Raw()...), Rounds: run.Rounds, Run: run}
}
