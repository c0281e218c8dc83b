// Command pgasd is the resident graph service: it loads a graph once,
// keeps it — and every kernel result computed on it — resident in a PGAS
// cluster, and answers batched point queries (same-component?,
// component-size, distance, tree-parent) and incremental edge insertions
// over a unix socket. Clients speak the length-prefixed frame protocol in
// internal/serve; the client package wraps it in Go. See docs/SERVING.md.
//
// Usage:
//
//	pgasd -socket /tmp/pgasd.sock -nodes 4 -tpn 2
//	pgasd -socket /tmp/pgasd.sock -verify     # differentially verify
//	                                          # every incremental update
//
// The server is inproc-only: batched queries are host-driven and change
// shape per request, which cannot keep SPMD symmetry across wire
// replicas, so there is no -transport flag.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"pgasgraph/internal/cliflag"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/serve"
)

func main() {
	socket := flag.String("socket", "", "unix socket path to listen on (required)")
	nodes, tpn := cliflag.Geometry(nil, 4, 2)
	verify := flag.Bool("verify", false, "differentially verify every incremental label update against a from-scratch recompute")
	modern := flag.Bool("modern", false, "calibrate the simulated cluster as ModernCluster instead of the paper's")
	flag.Parse()

	if *socket == "" {
		fmt.Fprintln(os.Stderr, "pgasd: -socket is required")
		flag.Usage()
		os.Exit(2)
	}

	base := machine.PaperCluster()
	if *modern {
		base = machine.ModernCluster()
	}
	base.Nodes = *nodes
	base.ThreadsPerNode = *tpn
	cfg := serve.Config{Machine: base, Col: collective.Optimized(2), Verify: *verify}
	if err := collective.ValidateGeometry(base.TotalThreads()); err != nil {
		fmt.Fprintf(os.Stderr, "pgasd: %v\n", err)
		os.Exit(2)
	}

	srv := serve.NewServer(func(g *graph.Graph) (*serve.Service, error) {
		return serve.New(cfg, g)
	})

	// A stale socket from a killed server blocks rebinding; remove it.
	_ = os.Remove(*socket)
	l, err := net.Listen("unix", *socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgasd: listen: %v\n", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		l.Close()
		os.Remove(*socket)
		os.Exit(0)
	}()

	fmt.Printf("pgasd: serving on %s (%d nodes × %d threads)\n", *socket, *nodes, *tpn)
	if err := srv.Serve(l); err != nil {
		fmt.Fprintf(os.Stderr, "pgasd: %v\n", err)
		os.Remove(*socket)
		os.Exit(1)
	}
}
