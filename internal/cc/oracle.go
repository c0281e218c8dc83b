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

// VerifyBipartite checks a Bipartite result against the sequential
// parity-BFS oracle: the component labels against union-find, one verdict
// per component — none under a label that names no component — and each
// verdict against the oracle's.
func VerifyBipartite(g *graph.Graph, res *BipartiteResult) error {
	if err := VerifyLabels(g, res.Component); err != nil {
		return err
	}
	want := seqBipartite(g)
	if len(res.ComponentBipartite) != len(want) {
		return fmt.Errorf("bipartite: %d component verdicts, oracle has %d",
			len(res.ComponentBipartite), len(want))
	}
	for label, bip := range want {
		if got, ok := res.ComponentBipartite[label]; !ok || got != bip {
			return fmt.Errorf("bipartite: component %d reported %v (present=%v), oracle says %v",
				label, got, ok, bip)
		}
	}
	return nil
}
