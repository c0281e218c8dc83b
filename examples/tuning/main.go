// Tuning: sweep the two knobs the paper's evaluation turns — the
// virtual-thread count t' (cache blocking, Figure 4) and the number of
// threads per node (Figure 7) — and report the best configuration for a
// given input. This is what a user of the library would run before
// committing to a deployment shape.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"pgasgraph"
)

func main() {
	g := pgasgraph.RandomGraph(400_000, 1_600_000, 21)
	fmt.Printf("input: %v\n\n", g)

	// Sweep 1: t' on a single SMP node (Figure 4's experiment). Cache
	// blocking only matters when the per-thread block outgrows the
	// cache; to demonstrate it at demo-size inputs we shrink the modeled
	// cache, emulating the paper's 100M-vertex working sets.
	fmt.Println("virtual threads t' (single node, 16 threads, 64 KB modeled cache):")
	smpCfg := pgasgraph.SingleSMP()
	smpCfg.CacheBytes = 64 << 10
	bestTP, bestTPNS := 0, 0.0
	for _, tp := range []int{1, 2, 4, 8, 12, 16, 24} {
		run := simulate(smpCfg, g, tp)
		marker := ""
		if bestTP == 0 || run.SimNS < bestTPNS {
			bestTP, bestTPNS = tp, run.SimNS
			marker = "  <- best so far"
		}
		fmt.Printf("  t'=%-3d %9.1f ms%s\n", tp, run.SimMS(), marker)
	}
	fmt.Printf("best t' = %d\n\n", bestTP)

	// Sweep 2: threads per node on the full cluster (Figure 7's experiment).
	fmt.Println("threads per node (16 nodes):")
	bestT, bestTNS := 0, 0.0
	for _, tpn := range []int{1, 2, 4, 8, 16} {
		cfg := pgasgraph.PaperCluster()
		cfg.ThreadsPerNode = tpn
		run := simulate(cfg, g, max(16/tpn, 1))
		marker := ""
		if bestT == 0 || run.SimNS < bestTNS {
			bestT, bestTNS = tpn, run.SimNS
			marker = "  <- best so far"
		}
		fmt.Printf("  t=%-3d %9.1f ms  (%d messages)%s\n", tpn, run.SimMS(), run.Messages, marker)
	}
	fmt.Printf("best threads/node = %d\n", bestT)
	fmt.Println("\nthe paper's finding: 8 threads/node is fastest; 16 collapses under")
	fmt.Println("the SMatrix/PMatrix all-to-all burst (a UPC flat-thread-model cost).")
}

// simulate runs the fully optimized CC kernel with t' virtual threads on a
// fresh cluster of the given shape and returns the run's accounting.
func simulate(cfg pgasgraph.MachineConfig, g *pgasgraph.Graph, tprime int) *pgasgraph.RunStats {
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "cc/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(tprime), Compact: true})
	if err != nil {
		log.Fatal(err)
	}
	return res.Run
}
