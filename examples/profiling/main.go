// Profiling: attach the trace collector to a run and watch the paper's
// §V hotspot appear, and see what removes it. cc/fastsv asks the owner of
// vertex 0 for the giant component's label every round; offload answers
// D[0] locally, but thread 0 stays hot. cc/coalesced's label layout deals
// the low labels over all blocks, and its serve load is flat.
//
//	go run ./examples/profiling
package main

import (
	"fmt"
	"log"
	"os"

	"pgasgraph"
	"pgasgraph/internal/trace"
)

func main() {
	cfg := pgasgraph.PaperCluster()
	cfg.ThreadsPerNode = 8
	g := pgasgraph.RandomGraph(200_000, 800_000, 42)

	for _, kernel := range []string{"cc/fastsv", "cc/coalesced"} {
		for _, offload := range []bool{false, true} {
			cluster, err := pgasgraph.NewCluster(cfg)
			if err != nil {
				log.Fatal(err)
			}
			collector := trace.NewCollector(cluster.Threads())
			cluster.Comm().SetTracer(collector)

			col := pgasgraph.OptimizedCollectives(2)
			col.Offload = offload
			res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: kernel, Graph: g, Col: col, Compact: true})
			if err != nil {
				log.Fatal(err)
			}

			label := "WITHOUT offload"
			if offload {
				label = "WITH offload"
			}
			fmt.Printf("=== %s %s: %.1f simulated ms, serve-load imbalance %.2fx ===\n",
				kernel, label, res.Run.SimMS(), collector.Imbalance())
			fmt.Printf("collective plans: %d built, %d reused (reused executions skip the grouping sort + matrix publish)\n",
				collector.PlanBuilds(), collector.PlanReuses())
			if err := collector.LoadTable(3).Fprint(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
	fmt.Println("cc/fastsv's hot server is thread 0, the owner of vertex 0 — the paper's §V")
	fmt.Println("thr_0, \"easily overwhelmed by requests from other nodes\". offload answers")
	fmt.Println("D[0] locally, saving those requests' time, but the other small labels in")
	fmt.Println("thread 0's block keep it hot. cc/coalesced's label layout spreads them over")
	fmt.Println("every block: that removes the hotspot, with or without offload.")
}
