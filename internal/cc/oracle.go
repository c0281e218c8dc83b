package cc

import (
	"fmt"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/unionfind"
)

// VerifyLabels checks a distributed component labeling against the
// sequential union-find oracle: the two labelings must induce the same
// partition of the vertices. It is the oracle adapter the differential
// verification harness (internal/verify) runs after every CC kernel.
func VerifyLabels(g *graph.Graph, labels []int64) error {
	if int64(len(labels)) != g.N {
		return fmt.Errorf("cc: %d labels for %d vertices", len(labels), g.N)
	}
	want := seq.CC(g)
	if !seq.SamePartition(want, labels) {
		for v := range labels {
			if labels[v] != want[v] {
				return fmt.Errorf("cc: labeling disagrees with union-find oracle (first at vertex %d: got %d, want %d)",
					v, labels[v], want[v])
			}
		}
		return fmt.Errorf("cc: labeling induces a different partition than the union-find oracle")
	}
	return nil
}

// VerifySpanningForest checks a SpanningForest result structurally: the
// CC labels must match the oracle, the chosen edges must be acyclic and
// stay within components, and their count must be exactly n minus the
// number of components (i.e. they span every component).
func VerifySpanningForest(g *graph.Graph, sf *SpanningForest) error {
	if err := VerifyLabels(g, sf.CC.Labels); err != nil {
		return err
	}
	ds := unionfind.New(g.N)
	for _, e := range sf.Edges {
		if e < 0 || e >= g.M() {
			return fmt.Errorf("cc: spanning forest references invalid edge id %d", e)
		}
		if !ds.Union(g.U[e], g.V[e]) {
			return fmt.Errorf("cc: spanning forest edge %d (%d,%d) creates a cycle", e, g.U[e], g.V[e])
		}
	}
	if want := g.N - sf.CC.Components; int64(len(sf.Edges)) != want {
		return fmt.Errorf("cc: spanning forest has %d edges, want n-#components = %d", len(sf.Edges), want)
	}
	return nil
}
