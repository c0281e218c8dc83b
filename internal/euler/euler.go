// Package euler implements the Euler tour technique — the classic PRAM
// composition the paper's lineage (list ranking + spanning forest) exists
// to serve. A spanning forest's arcs are threaded into one Euler chain per
// tree, distributed list ranking (pointer jumping over the collectives)
// orders the chain, and per-vertex tree statistics fall out arithmetically:
// parent, depth, preorder interval, and subtree size.
//
// The package composes three of this repository's systems: the spanning
// forest (internal/cc), the weighted Wyllie ranking (internal/listrank —
// whose per-round collective.Plan serves both of a round's gathers from
// one grouping), and the exchange engine underneath both.
package euler

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/pgas"
)

// TreeStats are rooted-forest statistics per vertex. Every tree is rooted
// at its smallest vertex id.
type TreeStats struct {
	// Root[v] is the root of v's tree (smallest id in its component).
	Root []int64
	// Parent[v] is v's parent, or -1 for roots (and isolated vertices).
	Parent []int64
	// Depth[v] is the hop distance from the root.
	Depth []int64
	// Preorder[v] is v's 1-based DFS preorder index within its tree,
	// following the tour's child order. A vertex's subtree occupies
	// exactly [Preorder[v], Preorder[v]+SubtreeSize[v]-1].
	Preorder []int64
	// SubtreeSize[v] counts the vertices in v's subtree (including v).
	SubtreeSize []int64
	// Rounds is the number of pointer-jumping rounds the ranking took.
	Rounds int
	// Run carries the simulated-time accounting of the distributed
	// ranking phase (tour construction and the final arithmetic are
	// charged within it as local work by the ranking threads).
	Run *pgas.Result
}

// Tour computes TreeStats for a forest given as an edge list together with
// its component roots, roots[v] the smallest vertex id of v's tree — what
// the caller that built the forest already holds (cc.SpanningForest's
// Forest and CC.Labels); Tour keeps roots as the result's Root. The input
// must be acyclic; Tour panics on graphs whose edge count makes acyclicity
// impossible and the tests verify full structural correctness.
//
// Recoverable state (pgas.Register): none. The tour is a multi-phase
// pipeline (successor linking, list ranking, prefix extraction) whose
// intermediate arrays only mean anything relative to the phase that built
// them; a cross-phase snapshot cut is unresumable. After an eviction the
// tour recovers by full deterministic re-execution.
func Tour(rt *pgas.Runtime, comm *collective.Comm, forest *graph.Graph, roots []int64, colOpts *collective.Options) *TreeStats {
	n := forest.N
	m := forest.M()
	if m >= n && n > 0 {
		panic(fmt.Sprintf("euler: %d edges on %d vertices cannot be a forest", m, n))
	}

	st := &TreeStats{
		Root:        roots,
		Parent:      make([]int64, n),
		Depth:       make([]int64, n),
		Preorder:    make([]int64, n),
		SubtreeSize: make([]int64, n),
		Run:         &pgas.Result{Threads: rt.NumThreads()},
	}
	for v := int64(0); v < n; v++ {
		st.Parent[v] = -1
		st.Preorder[v] = 1
		st.SubtreeSize[v] = 1
	}
	if m == 0 {
		return st
	}

	// Arc structures over the forest's CSR: arc p runs x -> Adj[p] where
	// x is the row vertex. twin(p) is the reverse arc's position.
	csr := graph.BuildCSR(forest)
	arcs := 2 * m
	rowOf := make([]int64, arcs)
	for v := int64(0); v < n; v++ {
		for p := csr.Offs[v]; p < csr.Offs[v+1]; p++ {
			rowOf[p] = v
		}
	}
	twin := make([]int64, arcs)
	firstPos := make([]int64, m)
	for e := range firstPos {
		firstPos[e] = -1
	}
	for p := int64(0); p < arcs; p++ {
		e := csr.EdgeID[p]
		if firstPos[e] < 0 {
			firstPos[e] = p
		} else {
			twin[p] = firstPos[e]
			twin[firstPos[e]] = p
		}
	}

	// Euler successor: succ(p = u->v) is the arc after twin(p) in v's
	// row, cyclically — one circuit per tree.
	succ := make([]int32, arcs)
	for p := int64(0); p < arcs; p++ {
		v := int64(csr.Adj[p])
		q := twin[p]
		next := q + 1
		if next == csr.Offs[v+1] {
			next = csr.Offs[v]
		}
		succ[p] = int32(next)
	}

	// Break each tree's circuit into a chain starting at the root's
	// first arc: the arc whose successor is that head becomes the tail.
	headOf := make(map[int64]int64) // root -> head arc
	for v := int64(0); v < n; v++ {
		if roots[v] == v && csr.Offs[v] < csr.Offs[v+1] {
			headOf[v] = csr.Offs[v]
		}
	}
	for p := int64(0); p < arcs; p++ {
		v := int64(csr.Adj[p])
		if h, ok := headOf[roots[v]]; ok && int64(succ[p]) == h {
			succ[p] = int32(p)
		}
	}

	// Phase 1: unweighted ranking orders the tour and decides arc
	// directions (the earlier arc of each twin pair is the downward one).
	list := &listrank.List{N: arcs, Succ: succ}
	r1 := listrank.Wyllie(rt, comm, list, nil, colOpts)
	st.Run.Add(r1.Run)

	// down[p] reports whether arc p runs parent -> child.
	down := make([]bool, arcs)
	for p := int64(0); p < arcs; p++ {
		q := twin[p]
		// Higher suffix count = earlier tour position. Process each
		// pair once from its first CSR position.
		if q > p {
			down[p] = r1.Ranks[p] > r1.Ranks[q]
			down[q] = !down[p]
		}
	}

	// Phase 2: weighted ranking (+1 down, -1 up) yields depths.
	w := make([]int64, arcs)
	for p := range w {
		if down[p] {
			w[p] = 1
		} else {
			w[p] = -1
		}
	}
	r2 := listrank.Wyllie(rt, comm, list, w, colOpts)
	st.Run.Add(r2.Run)
	st.Rounds = st.Run.Rounds

	// Arithmetic phase: derive the statistics.
	// Tree length for positions: head arc h has rank len-1, so
	// pos(p) = rank(h) - rank(p).
	for p := int64(0); p < arcs; p++ {
		if !down[p] {
			continue
		}
		u, v := rowOf[p], int64(csr.Adj[p])
		q := twin[p]
		st.Parent[v] = u
		// Depth: prefix sum including p. Phase 2's rank of p, the
		// weighted suffix, excludes the tail, whose weight w(tail)
		// completes the telescoping: total per tree is 0, so
		// depth(v) = w(p) - S_incl(p) = 1 - (rank2(p) + w(tail)).
		tailW := w[r2.Tail[p]]
		st.Depth[v] = 1 - (r2.Ranks[p] + tailW)
		// Subtree size from the two arcs' positions:
		// size = (pos(q) - pos(p) + 1) / 2 = (rank(p) - rank(q) + 1) / 2.
		st.SubtreeSize[v] = (r1.Ranks[p] - r1.Ranks[q] + 1) / 2
	}
	// Roots span their whole tree.
	treeSize := make(map[int64]int64, len(headOf))
	for v := int64(0); v < n; v++ {
		treeSize[roots[v]]++
	}
	for r := range headOf {
		st.SubtreeSize[r] = treeSize[r]
	}
	// Preorder from position and depth: along the tour up to and
	// including the entering arc of v, downs = preorder(v)-1 and
	// downs - ups = depth(v), with downs + ups = pos+1; solving gives
	// preorder(v) = (pos + depth(v) + 3) / 2.
	for p := int64(0); p < arcs; p++ {
		if !down[p] {
			continue
		}
		v := int64(csr.Adj[p])
		head := headOf[roots[v]]
		pos := r1.Ranks[head] - r1.Ranks[p]
		st.Preorder[v] = (pos + st.Depth[v] + 3) / 2
	}
	return st
}
