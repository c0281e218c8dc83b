package sssp

import (
	"fmt"

	"pgasgraph/internal/graph"
)

// VerifyDistances checks a distributed SSSP result against the sequential
// Dijkstra oracle: weighted distances must agree exactly (Unreached
// included). It is the oracle adapter the differential verification
// harness runs after every SSSP configuration.
func VerifyDistances(g *graph.Graph, src int64, dist []int64) error {
	if int64(len(dist)) != g.N {
		return fmt.Errorf("sssp: %d distances for %d vertices", len(dist), g.N)
	}
	want := seqDijkstra(g, src)
	for v := range dist {
		if dist[v] != want[v] {
			return fmt.Errorf("sssp: dist[%d] = %d from source %d, Dijkstra says %d", v, dist[v], src, want[v])
		}
	}
	return nil
}
