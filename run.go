package pgasgraph

import (
	"pgasgraph/internal/serve"
)

// Kernel dispatch and the graph service, re-exported from internal/serve.
// A KernelSpec names a kernel run ("cc/coalesced", "bfs/coalesced",
// "listrank/wyllie", ...) and Cluster.Run dispatches it through the one
// registry every program enters by: cmd/pgasd over its socket, cmd/pgasrun,
// internal/bench's tables and the benchmark/ workloads.
type (
	// KernelSpec names one kernel run: kernel, input (Graph, or List for
	// the listrank/* rows), options.
	KernelSpec = serve.KernelSpec
	// KernelResult is the uniform outcome of a dispatched kernel run; its
	// Detail holds the kernel's own result type (CCResult, BFSResult, ...).
	KernelResult = serve.KernelResult
	// Service is a resident graph service: kernel results stay in the
	// cluster and answer batched point queries as coalesced bulk gathers.
	Service = serve.Service
	// ServeConfig parameterizes a Service.
	ServeConfig = serve.Config
	// ServeQuery is one point lookup in a Service batch.
	ServeQuery = serve.Query
	// ServeEdge is one edge in a Service insertion batch.
	ServeEdge = serve.Edge
)

// Kernels returns the names Cluster.Run dispatches, in presentation
// order.
func Kernels() []string { return serve.Kernels() }

// Run dispatches a kernel by name on this cluster — the one way to run
// one. Misconfiguration — unknown kernel, a missing or invalid input (a
// list kernel without a List, any other without a Graph), a weighted
// kernel on an unweighted graph, a source out of range — returns a
// classified error (errors.Is(err, pgas.ErrMisuse)), as do classified
// runtime failures under their own classes; kernel-internal invariant
// violations panic.
//
//	res, err := cluster.Run(pgasgraph.KernelSpec{
//	    Kernel: "cc/coalesced", Graph: g, Compact: true,
//	})
func (c *Cluster) Run(spec KernelSpec) (*KernelResult, error) {
	return serve.RunKernel(c.rt, c.comm, spec)
}

// Verify checks res, the outcome of Run(spec), against the sequential
// oracle of spec's kernel (union-find, queue BFS, Dijkstra, Kruskal, chain
// walk, ...; docs/API.md lists them by row).
func Verify(spec KernelSpec, res *KernelResult) error { return serve.Verify(spec, res) }

// Serve turns this cluster into a resident graph service for g: run
// kernels with Service.Run, answer batched point queries with
// Service.Query, and apply edge insertions (incremental connected
// components) with Service.Insert. cmd/pgasd exposes the same service
// over a unix socket; the client package dials it. See docs/SERVING.md.
func (c *Cluster) Serve(g *Graph, cfg ServeConfig) (*Service, error) {
	return serve.NewOn(c.rt, c.comm, g, cfg)
}
