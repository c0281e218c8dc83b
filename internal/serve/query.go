package serve

import (
	"slices"

	"pgasgraph/internal/pgas"
)

// Op selects a point-query kind.
type Op uint8

const (
	// SameComponent answers 1 when U and V share a connected component,
	// else 0. Needs resident labels (run a cc kernel first).
	SameComponent Op = iota + 1
	// ComponentSize answers the size of U's component. Needs resident
	// labels.
	ComponentSize
	// Distance answers the distance between U and V along a resident
	// single-source tree: one endpoint must be the source of a resident
	// bfs/sssp run (hops or weighted accordingly); unreached pairs
	// answer the kernel's Unreached sentinel.
	Distance
	// TreeParent answers U's parent in the resident spanning forest, -1
	// for roots. Needs a resident spanning-forest run.
	TreeParent
)

func (op Op) String() string {
	switch op {
	case SameComponent:
		return "same-component"
	case ComponentSize:
		return "component-size"
	case Distance:
		return "distance"
	case TreeParent:
		return "tree-parent"
	}
	return "invalid"
}

// Query is one point lookup.
type Query struct {
	Op Op    `json:"op"`
	U  int64 `json:"u"`
	V  int64 `json:"v,omitempty"`
}

// misuse builds the classified error every query-validation failure uses.
func misuse(format string, args ...interface{}) error {
	return pgas.Errorf(pgas.ErrMisuse, -1, "serve.query", format, args...)
}

// checkVertex classifies an out-of-range id instead of letting it reach a
// collective's fail-fast panic: a bad query is client input, not a kernel
// bug.
func (s *Service) checkVertex(q int, v int64) error {
	if v < 0 || v >= s.g.N {
		return misuse("query %d: vertex %d out of range [0,%d)", q, v, s.g.N)
	}
	return nil
}

// route validates lookup i and names the column it reads and the k
// indices it asks of it.
func (s *Service) route(i int, q Query) (c *column, idx [2]int64, k int, err error) {
	idx = [2]int64{q.U, q.V}
	const noLabels = "no resident labels; run a cc kernel first"
	var missing string // the complaint when c is not resident
	switch q.Op {
	case SameComponent:
		c, k, missing = s.same, 2, noLabels
	case ComponentSize:
		c, k, missing = s.size, 1, noLabels
	case TreeParent:
		c, k, missing = s.parent, 1, "no resident forest; run spanning-forest first"
	case Distance:
		k = 2 // both endpoints are checked before either names a tree
	default:
		return nil, idx, 0, misuse("query %d: unknown op %d", i, q.Op)
	}
	if c == nil && missing != "" {
		return nil, idx, 0, misuse("query %d: %s", i, missing)
	}
	for _, v := range idx[:k] {
		if err := s.checkVertex(i, v); err != nil {
			return nil, idx, 0, err
		}
	}
	if q.Op == Distance {
		// One endpoint must be a resident source (U's tree if both are);
		// the tree is asked for the other.
		if c = s.dist[q.U]; c != nil {
			idx[0] = q.V
		} else if c = s.dist[q.V]; c == nil {
			return nil, idx, 0, misuse("query %d: no resident tree rooted at %d or %d; run bfs/sssp first",
				i, q.U, q.V)
		}
		k = 1
	}
	return c, idx, k, nil
}

// columns lists every resident column in the order a batch gathers them:
// same-component labels, size labels, distance trees by source, parents.
func (s *Service) columns() []*column {
	var cs []*column
	if s.same != nil {
		cs = append(cs, s.same, s.size)
	}
	for _, src := range s.sources() {
		cs = append(cs, s.dist[src])
	}
	if s.parent != nil {
		cs = append(cs, s.parent)
	}
	return cs
}

// Query answers a batch of point lookups: route every lookup to its
// column, gather, replay. The whole batch coalesces into O(1) bulk gathers
// — one planned GetD per touched column (plus one dependent gather for
// component sizes) — never per-query scalar reads; a batch with the same
// shape as the previous one re-executes the cached plans with zero
// steady-state allocations in the collective layer. Answers land in query
// order. Validation failures (bad op, id out of range, missing resident
// state) classify as pgas.ErrMisuse before any communication happens.
func (s *Service) Query(qs []Query) (ans []int64, err error) {
	if len(qs) == 0 {
		return []int64{}, nil
	}
	type gather struct {
		c       *column
		rebuild bool
	}
	var gathers []gather
	all := s.columns()
	defer func() {
		// However the batch ends — rejected half-way through routing
		// included — it leaves no requests behind.
		for _, c := range all {
			c.req, c.next = c.req[:0], 0
		}
		// A fault mid-region leaves the plans it ran half-built.
		if err != nil {
			for _, ga := range gathers {
				ga.c.plan = nil
			}
		}
	}()
	for i, q := range qs {
		c, idx, k, err := s.route(i, q)
		if err != nil {
			return nil, err
		}
		c.req = append(c.req, idx[:k]...)
	}
	for _, c := range all {
		if len(c.req) == 0 {
			continue
		}
		rebuild := c.plan == nil || !slices.Equal(c.idx, c.req)
		if rebuild {
			c.idx = append(c.idx[:0], c.req...)
		}
		if c.plan == nil {
			c.plan = s.comm.NewPlan()
		}
		c.out = grow(c.out, len(c.idx))
		gathers = append(gathers, gather{c, rebuild})
	}
	nsize := 0
	if s.size != nil {
		nsize = len(s.size.req)
	}
	s.sizeOut = grow(s.sizeOut, nsize)

	// One SPMD region answers the whole batch.
	defer pgas.Recover(&err)
	s.rt.Run(func(th *pgas.Thread) {
		for _, ga := range gathers {
			c := ga.c
			lo, hi := th.Span(int64(len(c.idx)))
			if ga.rebuild {
				c.plan.PlanRequests(th, c.arr, c.idx[lo:hi], s.col, nil)
			}
			c.plan.GetD(th, c.arr, c.out[lo:hi])
		}
		// Component sizes are a dependent gather: indices are the labels
		// just fetched, so this stage cannot reuse a plan across batches
		// — but it is still one bulk gather for the whole batch.
		if nsize > 0 {
			lo, hi := th.Span(int64(nsize))
			s.comm.GetD(th, s.sizes, s.size.out[lo:hi], s.sizeOut[lo:hi], s.col, nil)
		}
	})

	// Replay the batch: each lookup's values sit at its column's cursor.
	ans = make([]int64, len(qs))
	for i, q := range qs {
		c, _, k, _ := s.route(i, q)
		switch q.Op {
		case SameComponent:
			if c.out[c.next] == c.out[c.next+1] {
				ans[i] = 1
			}
		case ComponentSize:
			ans[i] = s.sizeOut[c.next]
		default:
			ans[i] = c.out[c.next]
		}
		c.next += k
	}
	return ans, nil
}

// grow returns b resized to n, reallocating only on capacity growth.
func grow(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}
