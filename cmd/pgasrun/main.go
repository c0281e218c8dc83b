// Command pgasrun runs one registry kernel on a graph file and reports
// simulated time, the result's headline numbers, and the category
// breakdown.
//
// Usage:
//
//	pgasrun -kernel cc/coalesced -nodes 16 -threads 8 -tprime 2 graph.pgg
//	pgasrun -kernel cc/naive -nodes 1 -threads 16 graph.pgg   # CC-SMP baseline
//	pgasrun -kernel cc/fastsv graph.pgg                       # fewest supersteps
//	pgasrun -kernel mst/coalesced weighted.pgg
//	pgasrun -kernel listrank/wyllie graph.pgg   # ranks a random chain over the file's n vertices
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pgasgraph"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "cc/coalesced", "kernel: "+strings.Join(pgasgraph.Kernels(), " | "))
	nodes := flag.Int("nodes", 16, "cluster nodes")
	threads := flag.Int("threads", 8, "threads per node")
	tprime := flag.Int("tprime", 2, "virtual threads t'")
	base := flag.Bool("base", false, "disable all optimizations (unoptimized collectives, no compaction)")
	verify := flag.Bool("verify", true, "verify the result against the kernel's sequential oracle")
	machineFile := flag.String("machine", "", "machine model JSON file (default: paper cluster)")
	profile := flag.Bool("profile", false, "print the collective profile and serve-load distribution")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pgasrun [flags] graph.pgg")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	g, err := graph.ReadBinary(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}

	cfg := pgasgraph.PaperCluster()
	if *machineFile != "" {
		loaded, err := machine.LoadFile(*machineFile)
		if err != nil {
			fatal(err)
		}
		cfg = loaded
	}
	cfg.Nodes = *nodes
	cfg.ThreadsPerNode = *threads
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		fatal(err)
	}

	spec := pgasgraph.KernelSpec{Kernel: *kernel, Graph: g, Col: pgasgraph.OptimizedCollectives(*tprime), Compact: true}
	if serve.TakesList(*kernel) {
		// The list kernels take no graph: they rank one random chain over the
		// file's vertex count, so every registry row runs from one input file.
		spec.List = pgasgraph.RandomChainList(g.N, 1)
	}
	if *base {
		spec.Col, spec.Compact = pgasgraph.BaseCollectives(), false
	}
	var collector *trace.Collector
	if *profile {
		collector = trace.NewCollector(cluster.Threads())
		cluster.Comm().SetTracer(collector)
	}

	// Unknown kernels, unweighted input to a weighted kernel and the like
	// come back as classified errors naming the fix.
	res, err := cluster.Run(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("input:       %v\n", g)
	fmt.Printf("machine:     %d nodes x %d threads\n", *nodes, *threads)
	fmt.Printf("kernel:      %s\n", res.Kernel)
	if res.Labels != nil {
		fmt.Printf("components:  %d\n", res.Components)
	}
	if res.Edges != nil {
		fmt.Printf("forest:      %d edges, weight %d\n", len(res.Edges), res.Weight)
	}
	if res.Dist != nil {
		reached := 0
		for _, d := range res.Dist {
			// BFSUnreached and SSSPUnreached are the same sentinel.
			if d != pgasgraph.BFSUnreached {
				reached++
			}
		}
		fmt.Printf("reached:     %d of %d vertices from source %d\n", reached, g.N, spec.Src)
	}
	fmt.Printf("iterations:  %d\n", res.Iterations)
	fmt.Printf("simulated:   %.2f ms\n", res.Run.SimMS())
	fmt.Printf("wall:        %v\n", res.Run.Wall)
	fmt.Printf("messages:    %d (%d bytes)\n", res.Run.Messages, res.Run.Bytes)
	avg := res.Run.AvgByCategory()
	fmt.Printf("breakdown (per-thread avg ms):\n")
	for c := sim.Category(0); c < sim.NumCategories; c++ {
		fmt.Printf("  %-10s %10.3f\n", c, avg[c]/1e6)
	}

	if *profile {
		fmt.Println()
		if err := collector.CollectiveTable().Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := collector.LoadTable(5).Fprint(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *verify {
		if err := pgasgraph.Verify(spec, res); err != nil {
			fmt.Fprintf(os.Stderr, "pgasrun: VERIFICATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verified against the sequential oracle")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pgasrun: %v\n", err)
	os.Exit(1)
}
