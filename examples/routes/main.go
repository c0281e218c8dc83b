// Route planning: single-source shortest paths over a weighted network
// with distributed delta-stepping, plus the bucket-width trade-off that
// governs its round count — the weighted sequel to the separation
// example's BFS.
//
//	go run ./examples/routes
package main

import (
	"fmt"
	"log"

	"pgasgraph"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/sssp"
)

func main() {
	const (
		cities = 100_000
		roads  = 400_000
	)
	// A connected road network with random travel costs.
	g := pgasgraph.WithRandomWeights(graph.RandomConnected(cities, roads, 7), 8)

	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}

	def := sssp.DefaultDelta(g)
	fmt.Printf("network: %d cities, %d roads; default bucket width %d\n\n", cities, roads, def)
	fmt.Println("delta-stepping from city 0:")
	spec := pgasgraph.KernelSpec{Kernel: "sssp/delta-stepping", Graph: g, Col: pgasgraph.OptimizedCollectives(2)}
	var best *pgasgraph.KernelResult
	for _, delta := range []int64{def / 4, def, def * 16} {
		spec.Delta = delta
		res, err := cluster.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  delta %-12d %8.1f simulated ms, %4d bucket phases, %d relaxations\n",
			delta, res.Run.SimMS(), res.Iterations, res.Detail.(*pgasgraph.SSSPResult).Relaxations)
		best = res
	}

	// Verify and report a few routes.
	if err := pgasgraph.Verify(spec, best); err != nil {
		log.Fatal("BUG: distances disagree with Dijkstra: ", err)
	}
	fmt.Println("\nverified against sequential Dijkstra")
	var farthest int64
	for v, d := range best.Dist {
		if d != pgasgraph.SSSPUnreached && d > best.Dist[farthest] {
			farthest = int64(v)
		}
	}
	fmt.Printf("farthest city from 0: %d at cost %d\n", farthest, best.Dist[farthest])
}
