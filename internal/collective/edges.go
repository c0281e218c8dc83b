package collective

import (
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// LiveEdges owns the live edge list of one kernel run: the endpoint
// vector every graft round gathers labels at, and the two optimizations
// the paper applies to it (§V) — compact, which drops edges already inside
// a component, and id, which keeps the grouping of a list that did not
// change. A kernel allocates one per run, host-side (on a wire fabric the
// plan's window id must be drawn SPMD-symmetrically), and every thread
// takes its share with List.
type LiveEdges struct {
	c       *Comm
	plan    *Plan // non-nil: the list never changes and gathers through this plan
	shrinks bool
}

// EdgeList is one thread's share of a LiveEdges. The kernel reads the
// slices after Gather and Compact, which re-slice them; it writes none.
type EdgeList struct {
	// Ends holds the live edges as (u, v) endpoint pairs: the gather's
	// request vector.
	Ends []int64
	// Labels is what the last Gather read at Ends, pair for pair.
	Labels []int64
	// IDs are the live edges' ids, one per pair; nil unless List was asked
	// for them.
	IDs []int64

	live    *LiveEdges
	planned bool
}

// NewLiveEdges returns the list for one kernel run. shrinks lets Compact
// drop settled pairs; regroup keeps a list that never shrinks on the
// one-shot gather all the same, a grouping sort every round — classic SV
// as the paper measured it (Figure 3). A list with neither gathers through
// one Plan, built when it first gathers and re-executed afterwards.
func (c *Comm) NewLiveEdges(shrinks, regroup bool) *LiveEdges {
	l := &LiveEdges{c: c, shrinks: shrinks}
	if !shrinks && !regroup {
		l.plan = c.NewPlan()
	}
	return l
}

// List builds thread th's share of the list: its span [lo, hi) of the m
// edges, whose (u, v) pairs fill writes to ends, two words an edge — with
// the edges' ids riding along when the kernel needs to name the edge behind
// a pair. The endpoint vector is written once per run and charged here.
func (l *LiveEdges) List(th *pgas.Thread, m int64, fill func(lo, hi int64, ends []int64), ids bool) *EdgeList {
	lo, hi := th.Span(m)
	el := &EdgeList{live: l, Ends: make([]int64, 2*(hi-lo)), Labels: make([]int64, 2*(hi-lo))}
	fill(lo, hi, el.Ends)
	if ids {
		el.IDs = make([]int64, hi-lo)
		for j := range el.IDs {
			el.IDs[j] = lo + int64(j)
		}
	}
	th.ChargeSeq(sim.CatWork, int64(len(el.Ends)))
	return el
}

// Gather reads Labels[j] = d[Ends[j]], the cheapest way the list allows.
// identity asserts d still holds its identity fill: every endpoint is its
// own label, so the answer is a local copy, charged as one, and no
// collective runs. A list that never changes builds its plan on the first
// real gather and re-executes it afterwards, paying the grouping sort and
// matrix publish once per run. A list that shrinks (or regroups) calls
// the one-shot GetD; it passes no IDCache, because the cache would be
// stale after every compaction and, as the model charges it, storing and
// reloading owner ids costs more than recomputing them. All threads must
// call it.
func (el *EdgeList) Gather(th *pgas.Thread, d *pgas.SharedArray, opts *Options, identity bool) {
	l := el.live
	el.Labels = el.Labels[:len(el.Ends)]
	switch {
	case identity:
		copy(el.Labels, el.Ends)
		th.ChargeSeq(sim.CatCopy, int64(len(el.Ends)))
	case l.plan == nil:
		l.c.GetD(th, d, el.Ends, el.Labels, opts, nil)
	default:
		if !el.planned {
			l.plan.PlanRequests(th, d, el.Ends, opts, nil)
			el.planned = true
		}
		l.plan.GetD(th, d, el.Labels)
	}
}

// Compact drops, in place and in order, every pair whose endpoints
// gathered equal labels, ids riding along; it is charged for the words it
// streams over. Labels merge monotonically in every kernel that compacts,
// so such an edge is inside one component for good. On a list created not
// to shrink it does nothing and charges nothing.
func (el *EdgeList) Compact(th *pgas.Thread) {
	if !el.live.shrinks {
		return
	}
	ends, labels, ids := el.Ends, el.Labels, el.IDs
	w := 0
	for j := 0; j < len(labels); j += 2 {
		if labels[j] != labels[j+1] {
			ends[w], ends[w+1] = ends[j], ends[j+1]
			if ids != nil {
				ids[w/2] = ids[j/2]
			}
			w += 2
		}
	}
	th.ChargeSeq(sim.CatWork, int64(len(ends)+len(ids)))
	el.Ends = ends[:w]
	if ids != nil {
		el.IDs = ids[:w/2]
	}
}
