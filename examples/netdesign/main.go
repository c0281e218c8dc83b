// Network design: build a minimum spanning forest over a weighted graph —
// the classic cheapest-backbone problem — with the paper's lock-free
// parallel Borůvka (SetDMin priority writes) and compare it against the
// lock-based MST-SMP baseline and sequential Kruskal.
//
//	go run ./examples/netdesign
package main

import (
	"fmt"
	"log"

	"pgasgraph"
)

func main() {
	const (
		sites = 150_000
		links = 600_000
	)
	// Candidate links with random costs in [0, 2^31).
	g := pgasgraph.WithRandomWeights(pgasgraph.RandomGraph(sites, links, 99), 100)
	fmt.Printf("network: %d sites, %d candidate links\n", sites, links)

	// Distributed, lock-free Borůvka on the simulated cluster.
	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8 // the paper's best configuration
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "mst/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed Borůvka (SetDMin): %8.1f simulated ms, %d rounds\n",
		dist.Run.SimMS(), dist.Iterations)

	// Lock-based shared-memory baseline on one node.
	smp, err := pgasgraph.NewCluster(pgasgraph.SingleSMP())
	if err != nil {
		log.Fatal(err)
	}
	lockBased, err := smp.Run(pgasgraph.KernelSpec{Kernel: "mst/naive", Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MST-SMP (fine-grained locks):  %8.1f simulated ms\n", lockBased.Run.SimMS())

	// Sequential Kruskal, charged with the cache-friendly merge sort.
	kruskal, kruskalNS := pgasgraph.KruskalTime(g, pgasgraph.SequentialMachine())
	fmt.Printf("sequential Kruskal:            %8.1f simulated ms\n", kruskalNS/1e6)

	fmt.Printf("\nbackbone: %d links, total cost %d\n", len(dist.Edges), dist.Weight)
	fmt.Printf("speedup over MST-SMP: %5.1fx   over Kruskal: %5.1fx\n",
		lockBased.Run.SimNS/dist.Run.SimNS, kruskalNS/dist.Run.SimNS)

	// The (weight, edge-id) total order makes the minimum spanning forest
	// unique, so all three must agree exactly on total cost.
	if dist.Weight != kruskal.Weight || lockBased.Weight != kruskal.Weight {
		log.Fatalf("BUG: weights disagree: dist=%d smp=%d kruskal=%d",
			dist.Weight, lockBased.Weight, kruskal.Weight)
	}
	fmt.Println("all three implementations agree on the optimum")
}
