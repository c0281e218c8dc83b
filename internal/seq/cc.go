// Package seq implements the sequential baselines the paper compares
// against: union-find connected components and Kruskal's minimum spanning
// forest (with the cache-friendly merge sort). The tests cross-check both
// against BFS components, Prim and Borůvka.
//
// The *Timed variants execute the same code while counting actual memory
// touches, then convert the counts to simulated nanoseconds through the
// machine cost model — these produce the "best sequential implementation"
// reference lines of Figures 7-10.
package seq

import (
	"pgasgraph/internal/graph"
	"pgasgraph/internal/sim"
)

// CC returns connected-component labels for g via union-find: labels[i] is
// the smallest vertex id in i's component (canonical form).
func CC(g *graph.Graph) []int64 {
	labels, _ := ccCounted(g)
	return labels
}

// CCTimed runs CC and charges its actual access counts against the model,
// returning the labels and the simulated time in nanoseconds.
func CCTimed(g *graph.Graph, model *sim.Model) ([]int64, float64) {
	labels, touches := ccCounted(g)
	var clk sim.Clock
	// Initialization: one streaming pass over the parent array.
	clk.Charge(sim.CatWork, model.SeqScan(g.N))
	// Edge scan: streaming read of the edge list (two endpoint arrays).
	clk.Charge(sim.CatWork, model.SeqScan(2*g.M()))
	// Find/union walks: irregular accesses into the n-element parent array.
	ns, misses := model.IrregularAccess(touches, g.N)
	clk.Charge(sim.CatIrregular, ns)
	clk.CacheMisses += misses
	// Canonicalization pass.
	clk.Charge(sim.CatWork, model.SeqScan(2*g.N))
	return labels, clk.NS
}

// ccCounted is the shared implementation: union-find with union by rank
// and path halving, counting every parent-array access.
func ccCounted(g *graph.Graph) (labels []int64, touches int64) {
	n := g.N
	parent := make([]int32, n)
	rank := make([]int8, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			touches += 2
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		touches++
		return x
	}
	for i := range g.U {
		ra, rb := find(g.U[i]), find(g.V[i])
		if ra == rb {
			continue
		}
		if rank[ra] < rank[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rank[ra] == rank[rb] {
			rank[ra]++
		}
		touches += 2
	}
	labels = make([]int64, n)
	for i := int64(0); i < n; i++ {
		labels[i] = int64(find(int32(i)))
	}
	return Canonical(labels), touches
}

// Canonical rewrites component labels so that every vertex carries the
// smallest vertex id of its component, making partitions from different
// algorithms directly comparable.
func Canonical(labels []int64) []int64 {
	minOf := make(map[int64]int64, 64)
	for i, l := range labels {
		if cur, ok := minOf[l]; !ok || int64(i) < cur {
			minOf[l] = int64(i)
		}
	}
	out := make([]int64, len(labels))
	for i, l := range labels {
		out[i] = minOf[l]
	}
	return out
}

// SamePartition reports whether two labelings induce the same partition of
// the vertex set (labels themselves may differ).
func SamePartition(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int64]int64, 64)
	rev := make(map[int64]int64, 64)
	for i := range a {
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := rev[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

// CountComponents returns the number of distinct labels.
func CountComponents(labels []int64) int64 {
	set := make(map[int64]struct{}, 64)
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return int64(len(set))
}
