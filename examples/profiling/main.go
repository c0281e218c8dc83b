// Profiling: attach the trace collector to a run and watch the paper's
// §V hotspot appear and disappear. Without the offload optimization, every
// pointer-jumping round asks the thread owning vertex 0 for the giant
// component's label — the collector shows that thread serving several
// times the average load. Offload removes exactly those requests.
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

	for _, offload := range []bool{false, true} {
		cluster, err := pgasgraph.NewCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		collector := trace.NewCollector(cluster.Threads())
		cluster.Comm().SetTracer(collector)

		col := pgasgraph.OptimizedCollectives(2)
		col.Offload = offload
		res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: col, Compact: true})
		if err != nil {
			log.Fatal(err)
		}

		label := "WITHOUT offload"
		if offload {
			label = "WITH offload"
		}
		fmt.Printf("=== %s: %.1f simulated ms, serve-load imbalance %.2fx ===\n",
			label, res.Run.SimMS(), collector.Imbalance())
		fmt.Printf("collective plans: %d built, %d reused (reused executions skip the grouping sort + matrix publish)\n",
			collector.PlanBuilds(), collector.PlanReuses())
		if err := collector.LoadTable(3).Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("the hot server is the thread owning vertex 0 — the paper's §V")
	fmt.Println("observation that thr_0 is \"easily overwhelmed by requests from other")
	fmt.Println("nodes\". offload answers D[0] locally, cutting that thread's load;")
	fmt.Println("the residue comes from other small labels that share its block.")
}
