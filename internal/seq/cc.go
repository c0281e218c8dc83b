// Package seq implements the sequential baselines the paper compares
// against: union-find connected components and Kruskal's minimum spanning
// forest. Both run on the one disjoint-set forest of internal/unionfind.
// The tests cross-check them against BFS components, Prim and Borůvka.
//
// The *Timed variants execute the same code while counting actual memory
// touches, then convert the counts to simulated nanoseconds through the
// machine cost model — these produce the "best sequential implementation"
// reference lines of Figures 7-10. Where the paper's baseline differs from
// the host's code only in cost, the model charges the paper's algorithm
// and the host runs one: Kruskal is charged the cache-friendly merge sort
// and sorts with slices.Sort, and CCExternalTimed is charged the
// external-memory algorithm and labels with union-find.
package seq

import (
	"pgasgraph/internal/graph"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/unionfind"
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
	return labels, ccCharge(g, model, touches)
}

// ccCharge prices the in-memory union-find CC that made touches
// parent-array accesses.
func ccCharge(g *graph.Graph, model *sim.Model, touches int64) float64 {
	var clk sim.Clock
	// Initialization: one streaming pass over the parent array.
	clk.Charge(sim.CatWork, model.SeqScan(g.N))
	// Edge scan: streaming read of the edge list (two endpoint arrays).
	clk.Charge(sim.CatWork, model.SeqScan(2*g.M()))
	// Find/union walks: irregular accesses into the n-element parent array.
	ns, _ := model.IrregularAccess(touches, g.N)
	clk.Charge(sim.CatIrregular, ns)
	// Canonicalization pass.
	clk.Charge(sim.CatWork, model.SeqScan(2*g.N))
	return clk.NS
}

// ccCounted is the shared implementation: one Union per edge and one Find
// per vertex, returning the canonical labels and the forest's touch count.
func ccCounted(g *graph.Graph) (labels []int64, touches int64) {
	ds := unionfind.New(g.N)
	for i := range g.U {
		ds.Union(g.U[i], g.V[i])
	}
	labels = make([]int64, g.N)
	for i := range labels {
		labels[i] = int64(ds.Find(int32(i)))
	}
	return Canonical(labels), ds.Touches
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
