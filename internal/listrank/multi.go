package listrank

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// MultiResult is the outcome of WyllieMulti: suffix aggregates along each
// chain plus the chain tails, the inputs Euler-tour computations need.
type MultiResult struct {
	// Count[i] is the number of hops from i to its chain's tail
	// (the plain list rank).
	Count []int64
	// Weighted[i] is the sum of weights over the nodes from i (inclusive)
	// up to but excluding the tail.
	Weighted []int64
	// Tail[i] is the id of i's chain's tail.
	Tail []int64
	// Rounds is the number of pointer-jumping rounds.
	Rounds int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// WyllieMulti runs pointer jumping carrying two accumulators at once — the
// hop count and a weighted sum — and also reports every node's final
// successor (its chain's tail). Each round fetches from three arrays
// (successor, count, weighted) at the same indices, so it builds one
// collective.Plan per round and executes it three times: the grouping
// sort and matrix publish are paid once instead of three times, while
// the results stay identical to three independent GetDs. The asymptotics
// are unchanged.
//
// Invariants maintained per round, with S the current jump pointer:
//
//	Count[i]    = hops from i to S[i]
//	Weighted[i] = sum of w over [i, S[i])   (i inclusive, S[i] exclusive)
func WyllieMulti(rt *pgas.Runtime, comm *collective.Comm, l *List, weights []int64, colOpts *collective.Options) *MultiResult {
	if int64(len(weights)) != l.N {
		panic(fmt.Sprintf("listrank: %d weights for %d nodes", len(weights), l.N))
	}
	col := collective.Sanitize(colOpts, false) // no offload: inapplicable to list ranking
	s := rt.NewSharedArray("S", l.N)
	cnt := rt.NewSharedArray("Count", l.N)
	wgt := rt.NewSharedArray("Weighted", l.N)
	for i := int64(0); i < l.N; i++ {
		s.StoreRaw(i, int64(l.Succ[i]))
		if int64(l.Succ[i]) != i {
			cnt.StoreRaw(i, 1)
			wgt.StoreRaw(i, weights[i])
		}
	}
	red := pgas.NewOrReducer(rt)
	plan := comm.NewPlan() // shared: rebuilt each round, executed 3x

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := s.ThreadCover(th.ID)
		span := hi - lo
		th.ChargeSeq(sim.CatWork, 3*span)

		active := make([]int64, 0, span)
		for i := lo; i < hi; i++ {
			if s.LoadRaw(i) != i {
				active = append(active, i)
			}
		}
		th.ChargeSeq(sim.CatWork, span)
		idx := make([]int64, span)
		ss := make([]int64, span)
		cs := make([]int64, span)
		ws := make([]int64, span)
		th.Barrier()

		red.Loop(th, "listrank.WyllieMulti", maxRounds, func(int) bool {
			k := len(active)
			for j, i := range active {
				idx[j] = s.LoadRaw(i)
			}
			th.ChargeSeq(sim.CatCopy, int64(k))

			// S, Count, and Weighted share one distribution, so one plan
			// over idx serves all three gathers.
			plan.PlanRequests(th, s, idx[:k], col, nil)
			plan.GetD(th, s, ss[:k])
			plan.GetD(th, cnt, cs[:k])
			plan.GetD(th, wgt, ws[:k])

			w := 0
			for j, i := range active {
				if ss[j] == idx[j] {
					continue // successor is a tail: finished
				}
				cnt.StoreRaw(i, cnt.LoadRaw(i)+cs[j])
				wgt.StoreRaw(i, wgt.LoadRaw(i)+ws[j])
				s.StoreRaw(i, ss[j])
				active[w] = i
				w++
			}
			active = active[:w]
			th.ChargeSeq(sim.CatCopy, 4*int64(k))
			return w > 0
		})
	})

	return &MultiResult{
		Count:    append([]int64(nil), cnt.Raw()...),
		Weighted: append([]int64(nil), wgt.Raw()...),
		Tail:     append([]int64(nil), s.Raw()...),
		Rounds:   run.Rounds,
		Run:      run,
	}
}
