// Package euler implements the Euler tour technique — the classic PRAM
// composition the paper's lineage (list ranking + spanning forest) exists
// to serve. A spanning forest's arcs are threaded into one Euler chain per
// tree, and distributed list ranking (pointer jumping over the
// collectives) orders the chain: of each arc's two directions, the one
// the tour takes first points from parent to child, which roots the
// forest.
//
// The package composes three of this repository's systems: the spanning
// forest (internal/cc), the Wyllie ranking (internal/listrank — whose
// per-round collective.Plan serves both of a round's gathers from one
// grouping), and the exchange engine underneath both.
package euler

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/pgas"
)

// Tour roots a forest given as an edge list together with its component
// roots, roots[v] the smallest vertex id of v's tree — what the caller
// that built the forest already holds (cc.SpanningForest's Forest and
// CC.Labels). It returns each vertex's parent, -1 for roots (and isolated
// vertices). The input must be acyclic; Tour panics on graphs whose edge
// count makes acyclicity impossible, and VerifyParents checks the answer
// exactly.
//
// Recoverable state (pgas.Register): none. The tour is a pipeline
// (successor linking, list ranking, arc orientation) whose intermediate
// arrays only mean anything relative to the phase that built them; a
// cross-phase snapshot cut is unresumable. After an eviction the tour
// recovers by full deterministic re-execution.
func Tour(rt *pgas.Runtime, comm *collective.Comm, forest *graph.Graph, roots []int64, colOpts *collective.Options) []int64 {
	n := forest.N
	m := forest.M()
	if m >= n && n > 0 {
		panic(fmt.Sprintf("euler: %d edges on %d vertices cannot be a forest", m, n))
	}
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = -1
	}
	if m == 0 {
		return parent
	}

	// Arc structures over the forest's CSR: arc p runs x -> Adj[p] where
	// x is the row vertex. twin(p) is the reverse arc's position.
	csr := graph.BuildCSR(forest)
	arcs := 2 * m
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

	// The ranking orders each tour; a higher rank (distance to the tail)
	// is an earlier position, and of a twin pair the earlier arc runs
	// parent -> child.
	rank := listrank.Wyllie(rt, comm, &listrank.List{N: arcs, Succ: succ}, colOpts).Ranks
	for u := int64(0); u < n; u++ {
		for p := csr.Offs[u]; p < csr.Offs[u+1]; p++ {
			if rank[p] > rank[twin[p]] {
				parent[csr.Adj[p]] = u
			}
		}
	}
	return parent
}
