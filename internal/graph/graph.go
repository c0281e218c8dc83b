// Package graph provides the edge-list graph substrate: the Graph type,
// the paper's input generators (uniform random graphs and the hybrid
// random/scale-free graphs of §III, plus RMAT for completeness), synthetic
// test graphs, CSR adjacency construction, and binary/text I/O.
//
// All generators are deterministic functions of (parameters, seed) and are
// independent of thread count, a property the paper requires so that
// scalability experiments run on identical inputs (§III).
package graph

import (
	"errors"
	"fmt"
)

// Graph is an undirected graph in edge-list form, the input representation
// of the paper's CC and MST codes. Vertices are [0, N). Each edge is stored
// once as (U[i], V[i]); W[i] is its weight when Weighted.
type Graph struct {
	N int64
	U []int32
	V []int32
	W []uint32 // nil for unweighted graphs
}

// M returns the edge count.
func (g *Graph) M() int64 { return int64(len(g.U)) }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.W != nil }

// Ends writes the endpoints of edges [lo, hi) to ends as (u, v) pairs, two
// words an edge — the fill collective.LiveEdges.List takes.
func (g *Graph) Ends(lo, hi int64, ends []int64) {
	for e := lo; e < hi; e++ {
		ends[2*(e-lo)], ends[2*(e-lo)+1] = int64(g.U[e]), int64(g.V[e])
	}
}

// Validate checks structural invariants: matching slice lengths and
// endpoints within [0, N).
func (g *Graph) Validate() error {
	if g.N < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(g.U) != len(g.V) {
		return fmt.Errorf("graph: len(U)=%d != len(V)=%d", len(g.U), len(g.V))
	}
	if g.W != nil && len(g.W) != len(g.U) {
		return fmt.Errorf("graph: len(W)=%d != m=%d", len(g.W), len(g.U))
	}
	for i := range g.U {
		if int64(g.U[i]) >= g.N || g.U[i] < 0 || int64(g.V[i]) >= g.N || g.V[i] < 0 {
			return fmt.Errorf("graph: edge %d = (%d,%d) out of range n=%d", i, g.U[i], g.V[i], g.N)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, U: append([]int32(nil), g.U...), V: append([]int32(nil), g.V...)}
	if g.W != nil {
		c.W = append([]uint32(nil), g.W...)
	}
	return c
}

// Degrees returns the degree of every vertex (self-loops count twice).
func (g *Graph) Degrees() []int64 {
	d := make([]int64, g.N)
	for i := range g.U {
		d[g.U[i]]++
		d[g.V[i]]++
	}
	return d
}

// SelfLoops returns the number of self-loop edges.
func (g *Graph) SelfLoops() int64 {
	var c int64
	for i := range g.U {
		if g.U[i] == g.V[i] {
			c++
		}
	}
	return c
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "unweighted"
	if g.Weighted() {
		kind = "weighted"
	}
	return fmt.Sprintf("graph{n=%d m=%d %s}", g.N, g.M(), kind)
}

// CSR is a compressed-sparse-row adjacency view of a Graph, used by the
// sequential baselines (BFS connected components, Prim's MST). Each
// undirected edge appears in both endpoint rows.
type CSR struct {
	N      int64
	Offs   []int64  // length N+1
	Adj    []int32  // neighbor vertex ids
	WAdj   []uint32 // parallel weights, nil if unweighted
	EdgeID []int64  // index of the originating edge in the edge list
}

// BuildCSR constructs the adjacency structure in two counting passes.
func BuildCSR(g *Graph) *CSR {
	c := &CSR{N: g.N}
	c.Offs = make([]int64, g.N+1)
	for i := range g.U {
		c.Offs[g.U[i]+1]++
		c.Offs[g.V[i]+1]++
	}
	for i := int64(0); i < g.N; i++ {
		c.Offs[i+1] += c.Offs[i]
	}
	total := c.Offs[g.N]
	c.Adj = make([]int32, total)
	c.EdgeID = make([]int64, total)
	if g.Weighted() {
		c.WAdj = make([]uint32, total)
	}
	cursor := make([]int64, g.N)
	copy(cursor, c.Offs[:g.N])
	for i := range g.U {
		u, v := g.U[i], g.V[i]
		pu := cursor[u]
		cursor[u]++
		c.Adj[pu] = v
		c.EdgeID[pu] = int64(i)
		pv := cursor[v]
		cursor[v]++
		c.Adj[pv] = u
		c.EdgeID[pv] = int64(i)
		if g.Weighted() {
			c.WAdj[pu] = g.W[i]
			c.WAdj[pv] = g.W[i]
		}
	}
	return c
}

// Neighbors returns the adjacency row of vertex v.
func (c *CSR) Neighbors(v int64) []int32 {
	return c.Adj[c.Offs[v]:c.Offs[v+1]]
}
