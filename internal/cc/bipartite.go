package cc

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
)

// BipartiteResult reports two-colorability per connected component.
type BipartiteResult struct {
	// Component[v] is v's canonical component label in g.
	Component []int64
	// ComponentBipartite maps each canonical component label to whether
	// that component is bipartite.
	ComponentBipartite map[int64]bool
	// Side[v] is v's color (0 or 1) when its component is bipartite,
	// -1 otherwise.
	Side []int8
	// Run carries the distributed cover-CC run's accounting.
	Run *pgas.Result
}

// Bipartite tests every component of g for two-colorability using the
// bipartite double cover: G' has two copies v and v+n of every vertex and,
// for each edge (u,v), the crossed edges (u, v+n) and (v, u+n). A
// component is bipartite exactly when its two copies land in *different*
// cover components — an odd cycle welds them together. The heavy work is
// one distributed CC over the 2n-vertex cover; the per-component
// bookkeeping is host post-processing like the kernels' finish steps.
//
// A self-loop is an odd cycle of length one, so its component is reported
// non-bipartite — matching the parity-BFS verifier in the tests.
//
// Recoverable state (pgas.Register): only what the cover run registers
// (Coalesced's D); the side assignment is host post-processing recomputed
// from the final labels.
func Bipartite(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *BipartiteResult {
	n := g.N
	cover := &graph.Graph{N: 2 * n}
	for i := range g.U {
		u, v := int64(g.U[i]), int64(g.V[i])
		cover.U = append(cover.U, int32(u), int32(v))
		cover.V = append(cover.V, int32(v+n), int32(u+n))
	}

	cc := Coalesced(rt, comm, cover, opts)
	coverLabel := cc.Labels

	res := &BipartiteResult{
		Component:          make([]int64, n),
		ComponentBipartite: map[int64]bool{},
		Side:               make([]int8, n),
		Run:                cc.Run,
	}
	// A component with canonical label r is bipartite iff r's two copies
	// are in different cover components; colors follow r's copy A. One of
	// v's two copies always shares a cover component with r's copy A, whose
	// label is r (nothing in it is smaller); the other copy's is larger.
	for v := int64(0); v < n; v++ {
		r := min(coverLabel[v], coverLabel[v+n])
		res.Component[v] = r
		bip, seen := res.ComponentBipartite[r]
		if !seen {
			bip = coverLabel[r] != coverLabel[r+n]
			res.ComponentBipartite[r] = bip
		}
		switch {
		case !bip:
			res.Side[v] = -1
		case coverLabel[v] == coverLabel[r]:
			res.Side[v] = 0
		default:
			res.Side[v] = 1
		}
	}
	return res
}

// seqBipartite is the sequential verifier: BFS two-coloring per component,
// returning per-component bipartiteness keyed by canonical label.
func seqBipartite(g *graph.Graph) map[int64]bool {
	labels := seq.CC(g)
	csr := graph.BuildCSR(g)
	color := make([]int8, g.N)
	for i := range color {
		color[i] = -1
	}
	out := map[int64]bool{}
	for s := int64(0); s < g.N; s++ {
		if labels[s] != s {
			continue // only component representatives start a BFS
		}
		bip := true
		color[s] = 0
		queue := []int64{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range csr.Neighbors(v) {
				u := int64(w)
				if u == v {
					bip = false // self-loop
					continue
				}
				if color[u] == -1 {
					color[u] = 1 - color[v]
					queue = append(queue, u)
				} else if color[u] == color[v] {
					bip = false
				}
			}
		}
		out[s] = bip
	}
	return out
}
