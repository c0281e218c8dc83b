package seq

import (
	"fmt"
	"math/bits"
	"slices"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/unionfind"
)

// MSF is a minimum spanning forest: the chosen edge ids and total weight.
type MSF struct {
	Edges  []int64
	Weight uint64
}

// Kruskal computes the minimum spanning forest with the paper's best
// sequential MST baseline: sort all edges by weight, then grow the forest
// with union-find. The paper sorts with a cache-friendly bottom-up merge
// sort (§VI: "we use the cache-friendly merge sort in implementing
// Kruskal's algorithm"); the (weight, edge id) keys are distinct, so every
// sort orders them alike, and the host sorts once with slices.Sort while
// KruskalTimed charges the merge sort's passes.
func Kruskal(g *graph.Graph) *MSF {
	msf, _, _ := kruskalCounted(g)
	return msf
}

// KruskalTimed runs Kruskal and charges its work against the model — the
// sort as the paper's bottom-up merge sort, ceil(lg m) streaming passes —
// returning the forest and the simulated nanoseconds.
func KruskalTimed(g *graph.Graph, model *sim.Model) (*MSF, float64) {
	msf, passes, touches := kruskalCounted(g)
	var clk sim.Clock
	m := g.M()
	// Key packing: streaming read of weights+ids, streaming write of keys.
	clk.Charge(sim.CatWork, 2*model.SeqScan(m))
	// Merge sort: each pass streams the array once in and once out.
	clk.Charge(sim.CatSort, float64(passes)*2*model.SeqScan(m))
	clk.Charge(sim.CatSort, model.Ops(m*int64(passes))) // comparisons
	// Union-find growth: irregular accesses into the parent array.
	ns, _ := model.IrregularAccess(touches, g.N)
	clk.Charge(sim.CatIrregular, ns)
	return msf, clk.NS
}

func kruskalCounted(g *graph.Graph) (msf *MSF, passes int, touches int64) {
	if !g.Weighted() {
		panic("seq: Kruskal requires a weighted graph")
	}
	m := g.M()
	keys := make([]int64, m)
	for i := int64(0); i < m; i++ {
		keys[i] = int64(g.W[i])<<32 | i
	}
	slices.Sort(keys)
	if m >= 2 {
		passes = bits.Len64(uint64(m - 1)) // the merge widths 1, 2, 4, … below m
	}

	ds := unionfind.New(g.N)
	msf = &MSF{}
	for _, key := range keys {
		e := key & 0xffffffff
		if ds.Union(g.U[e], g.V[e]) {
			msf.Edges = append(msf.Edges, e)
			msf.Weight += uint64(g.W[e])
		}
	}
	return msf, passes, ds.Touches
}

// CheckForest verifies that the edge ids in msf form a spanning forest of
// g: acyclic, and connecting exactly g's connected components. Returns an
// error describing the first violation.
func CheckForest(g *graph.Graph, msf *MSF) error {
	ds := unionfind.New(g.N)
	var weight uint64
	for _, e := range msf.Edges {
		if e < 0 || e >= g.M() {
			return fmt.Errorf("seq: forest references invalid edge id %d", e)
		}
		if !ds.Union(g.U[e], g.V[e]) {
			return fmt.Errorf("seq: forest edge %d (%d,%d) creates a cycle", e, g.U[e], g.V[e])
		}
		weight += uint64(g.W[e])
	}
	if weight != msf.Weight {
		return fmt.Errorf("seq: forest weight mismatch: recomputed %d, recorded %d", weight, msf.Weight)
	}
	comps := CountComponents(CC(g))
	forestEdges := int64(len(msf.Edges))
	if forestEdges != g.N-comps {
		return fmt.Errorf("seq: forest has %d edges, want n-#components = %d-%d = %d",
			forestEdges, g.N, comps, g.N-comps)
	}
	return nil
}
