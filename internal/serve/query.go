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

// route validates lookup i and names the stream it reads and the k
// indices it asks of it.
func (s *Service) route(i int, q Query) (c *column, idx [2]int64, k int, err error) {
	idx = [2]int64{q.U, q.V}
	const noLabels = "no resident labels; run a cc kernel first"
	resident, missing := true, ""
	switch q.Op {
	case SameComponent:
		c, k, resident, missing = s.labels, 2, s.labels != nil, noLabels
	case ComponentSize:
		c, k, resident, missing = s.labels, 1, s.labels != nil, noLabels
	case TreeParent:
		c, k, missing = s.table, 1, "no resident forest; run spanning-forest first"
		_, resident = slices.BinarySearch(s.cols, forestCol)
	case Distance:
		c, k = s.table, 2 // both endpoints are checked before either names a tree
	default:
		return nil, idx, 0, misuse("query %d: unknown op %d", i, q.Op)
	}
	if !resident {
		return nil, idx, 0, misuse("query %d: %s", i, missing)
	}
	// An out-of-range id is client input, not a kernel bug: it must not
	// reach a collective's fail-fast panic.
	for _, v := range idx[:k] {
		if v < 0 || v >= s.g.N {
			return nil, idx, 0, misuse("query %d: vertex %d out of range [0,%d)", i, v, s.g.N)
		}
	}
	if q.Op >= Distance {
		// A TreeParent asks the forest for U; a Distance asks the tree of
		// whichever endpoint is a resident source (U's if both are) for
		// the other.
		col, other := int64(forestCol), q.U
		if q.Op == Distance {
			col, other = q.U, q.V
		}
		at, ok := slices.BinarySearch(s.cols, col)
		if !ok && q.Op == Distance {
			other = q.U
			at, ok = slices.BinarySearch(s.cols, q.V)
		}
		if !ok {
			return nil, idx, 0, misuse("query %d: no resident tree rooted at %d or %d; run bfs/sssp first",
				i, q.U, q.V)
		}
		idx[0], k = other*int64(len(s.cols))+int64(at), 1
	}
	return c, idx, k, nil
}

// Query answers a batch of point lookups: route every lookup to its
// stream, gather, replay. The whole batch coalesces into one bulk gather
// per dependent stage — a planned GetD of the labels, a planned GetD of
// the table, and one dependent gather of component sizes at the labels
// just fetched — never per-query scalar reads; a batch with the same shape
// as the previous one re-executes the cached plans with zero steady-state
// allocations in the collective layer. Answers land in query order.
// Validation failures (bad op, id out of range, missing resident state)
// classify as pgas.ErrMisuse before any communication happens.
func (s *Service) Query(qs []Query) (ans []int64, err error) {
	if len(qs) == 0 {
		return []int64{}, nil
	}
	streams := [2]*column{s.labels, s.table}
	var rebuild [2]bool
	ran := false
	defer func() {
		for _, c := range streams {
			if c == nil {
				continue
			}
			// A fault mid-region leaves the plans it ran half-built.
			if ran && err != nil && len(c.req) > 0 {
				c.plan = nil
			}
			// However the batch ends — rejected half-way through routing
			// included — it leaves no requests behind.
			c.req = c.req[:0]
		}
	}()
	s.at, s.sizeAt = s.at[:0], s.sizeAt[:0]
	for i, q := range qs {
		c, idx, k, err := s.route(i, q)
		if err != nil {
			return nil, err
		}
		at := len(c.req)
		if q.Op == ComponentSize {
			at = len(s.sizeAt)
			s.sizeAt = append(s.sizeAt, len(c.req))
		}
		s.at = append(s.at, at)
		c.req = append(c.req, idx[:k]...)
	}
	for j, c := range streams {
		if c == nil || len(c.req) == 0 {
			continue
		}
		rebuild[j] = c.plan == nil || !slices.Equal(c.idx, c.req)
		if rebuild[j] {
			c.idx = append(c.idx[:0], c.req...)
		}
		if c.plan == nil {
			c.plan = s.comm.NewPlan()
		}
		c.out = slices.Grow(c.out[:0], len(c.idx))[:len(c.idx)]
	}
	nsize := len(s.sizeAt)
	s.sizeIdx, s.sizeOut = slices.Grow(s.sizeIdx[:0], nsize)[:nsize], slices.Grow(s.sizeOut[:0], nsize)[:nsize]

	// One SPMD region answers the whole batch.
	defer pgas.Recover(&err)
	ran = true
	s.rt.Run(func(th *pgas.Thread) {
		for j, c := range streams {
			if c == nil || len(c.req) == 0 {
				continue
			}
			lo, hi := th.Span(int64(len(c.idx)))
			if rebuild[j] {
				c.plan.PlanRequests(th, c.arr, c.idx[lo:hi], s.col, nil)
			}
			c.plan.GetD(th, c.arr, c.out[lo:hi])
		}
		// Component sizes are a dependent gather: indices are the labels
		// just fetched, so this stage cannot reuse a plan across batches
		// — but it is still one bulk gather for the whole batch. A label
		// may sit in another thread's span of the label stream, and a
		// collective's results are the caller's own until a barrier.
		if nsize > 0 {
			th.Barrier()
			lo, hi := th.Span(int64(nsize))
			for j := lo; j < hi; j++ {
				s.sizeIdx[j] = s.labels.out[s.sizeAt[j]]
			}
			s.comm.GetD(th, s.sizes, s.sizeIdx[lo:hi], s.sizeOut[lo:hi], s.col, nil)
		}
	})

	// Replay the batch from where routing put each lookup.
	ans = make([]int64, len(qs))
	for i, q := range qs {
		switch at := s.at[i]; q.Op {
		case SameComponent:
			if s.labels.out[at] == s.labels.out[at+1] {
				ans[i] = 1
			}
		case ComponentSize:
			ans[i] = s.sizeOut[at]
		default:
			ans[i] = s.table.out[at]
		}
	}
	return ans, nil
}
