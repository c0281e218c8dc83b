package verify

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
)

// shrink greedily minimizes a failing trial: it tries progressively
// simpler machines, option vectors, graphs, and lists, keeping a
// candidate only if the check still fails on it, until no reduction
// sticks or the predicate-run budget is exhausted. Greedy passes restart
// after every accepted reduction, so shrinking a graph can re-enable a
// smaller machine and vice versa.
func shrink(c Check, t *Trial, budget int) (*Trial, int) {
	runs := 0
	fails := func(cand *Trial) bool {
		if runs >= budget {
			return false
		}
		runs++
		return c.Applicable(cand) && runCheck(c, cand, Env{}).Err != nil
	}
	cur := t
	for {
		next := shrinkOnce(cur, fails)
		if next == nil {
			return cur, runs
		}
		cur = next
	}
}

// shrinkOnce returns the first accepted reduction of t, or nil when every
// candidate passes (or the budget ran out).
func shrinkOnce(t *Trial, fails func(*Trial) bool) *Trial {
	// 1. Machine geometry: fewer threads first, then fewer nodes.
	for _, geo := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {1, 4}, {4, 1}} {
		if geo[0] < t.Machine.Nodes || (geo[0] == t.Machine.Nodes && geo[1] < t.Machine.ThreadsPerNode) {
			if cand := t.withMachine(geo[0], geo[1]); fails(cand) {
				return cand
			}
		}
	}
	// 2. Options: strip optimizations one at a time, then all at once.
	for _, simplify := range []func(*collective.Options){
		func(o *collective.Options) { o.VirtualThreads = 0 },
		func(o *collective.Options) { o.Circular = false },
		func(o *collective.Options) { o.LocalCpy = false },
		func(o *collective.Options) { o.CachedIDs = false },
		func(o *collective.Options) { o.Offload = false },
		func(o *collective.Options) { o.Sort = collective.CountSort },
		func(o *collective.Options) { *o = collective.Options{} },
	} {
		cand := *t
		simplify(&cand.Opts)
		if cand.Opts != t.Opts && fails(&cand) {
			return &cand
		}
	}
	if t.Compact {
		cand := *t
		cand.Compact = false
		if fails(&cand) {
			return &cand
		}
	}
	// 3. Graph: halve the edge set three ways, then truncate vertices.
	m := int64(t.Graph.M())
	if m > 0 {
		for _, keep := range []func(e int64) bool{
			func(e int64) bool { return e < m/2 },
			func(e int64) bool { return e >= m/2 },
			func(e int64) bool { return e%2 == 0 },
		} {
			if cand := t.withGraph(filterEdges(t.Graph, keep)); fails(cand) {
				return cand
			}
		}
	}
	if n := t.Graph.N; n > 2 {
		half := n/2 + 1
		g := &graph.Graph{N: half}
		for e := range t.Graph.U {
			if int64(t.Graph.U[e]) < half && int64(t.Graph.V[e]) < half {
				g.U = append(g.U, t.Graph.U[e])
				g.V = append(g.V, t.Graph.V[e])
			}
		}
		if cand := t.withGraph(g); fails(cand) {
			return cand
		}
	}
	// 4. List: replace with a fresh half-length random list.
	if t.List.N > 2 {
		cand := t.withList(listrank.RandomList(t.List.N/2, t.Seed))
		if fails(cand) {
			return cand
		}
	}
	return nil
}

// filterEdges copies g keeping only edges whose index satisfies keep.
func filterEdges(g *graph.Graph, keep func(e int64) bool) *graph.Graph {
	out := &graph.Graph{N: g.N}
	for e := range g.U {
		if keep(int64(e)) {
			out.U = append(out.U, g.U[e])
			out.V = append(out.V, g.V[e])
		}
	}
	return out
}
