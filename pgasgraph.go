// Package pgasgraph is a Go reproduction of "Fast PGAS Implementation of
// Distributed Graph Algorithms" (Cong, Almasi, Saraswat — SC 2010): PRAM
// connected-components and minimum-spanning-forest kernels mapped onto a
// PGAS runtime, rewritten with locality-optimized collectives (GetD, SetD,
// SetDMin) and the paper's full optimization suite (access scheduling with
// virtual threads, communication coalescing, compact, offload, circular,
// localcpy, id, RDMA).
//
// The paper's UPC runtime and 16-node SMP cluster are substituted by an
// in-process PGAS runtime whose threads are goroutines and whose execution
// time is simulated through a calibrated machine model — data movement and
// results are real and verified; timings reproduce the paper's relative
// shapes, not its absolute numbers. See DESIGN.md.
//
// Basic use:
//
//	cluster, err := pgasgraph.NewCluster(pgasgraph.PaperCluster())
//	g := pgasgraph.RandomGraph(1_000_000, 4_000_000, 42)
//	res, err := cluster.Run(pgasgraph.KernelSpec{Kernel: "cc/coalesced", Graph: g,
//		Col: pgasgraph.OptimizedCollectives(8), Compact: true})
//	fmt.Println(res.Components, res.Run.SimMS())
//
// Every kernel is a row of one registry (Kernels lists the names) and
// Cluster.Run is the one way to invoke it; Verify checks a result against
// the kernel's sequential oracle. See docs/API.md.
package pgasgraph

import (
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/sssp"
)

// Core re-exported types. The aliases make the internal packages' types
// part of the public surface without duplicating them.
type (
	// Graph is an undirected graph in edge-list form.
	Graph = graph.Graph
	// List is a collection of disjoint linked chains (KernelSpec.List).
	List = listrank.List
	// MachineConfig describes the modeled cluster hardware.
	MachineConfig = machine.Config
	// CollectiveOptions selects the paper's collective optimizations.
	CollectiveOptions = collective.Options
	// MSF is a sequential minimum-spanning-forest result.
	MSF = seq.MSF
	// RunStats carries a run's simulated-time accounting.
	RunStats = pgas.Result
)

// What KernelResult.Detail holds, by registry row (docs/API.md has the
// table): the kernel package's own result type.
type (
	// CCResult is a connected-components outcome (cc/*).
	CCResult = cc.Result
	// SpanningForest is a spanning-forest outcome (spanning-forest).
	SpanningForest = cc.SpanningForest
	// BFSResult is a breadth-first-search outcome (bfs/*).
	BFSResult = bfs.Result
	// SSSPResult is a shortest-paths outcome (sssp/delta-stepping).
	SSSPResult = sssp.Result
	// MSFResult is a minimum-spanning-forest outcome (mst/*).
	MSFResult = mst.Result
	// ListRankResult is a list-ranking outcome (listrank/*).
	ListRankResult = listrank.Result
)

// Machine presets.

// PaperCluster models the paper's platform: 16 IBM P575+ nodes (16 CPUs
// each) on a 2 GB/s switch.
func PaperCluster() MachineConfig { return machine.PaperCluster() }

// SingleSMP models one 16-processor node (the paper's SMP baselines).
func SingleSMP() MachineConfig { return machine.SingleSMP() }

// SequentialMachine models a single thread (the sequential baselines).
func SequentialMachine() MachineConfig { return machine.Sequential() }

// ModernCluster is a present-day calibration of the same model.
func ModernCluster() MachineConfig { return machine.ModernCluster() }

// Graph constructors.

// RandomGraph returns a uniform random simple graph (n vertices, m edges).
func RandomGraph(n, m int64, seed uint64) *Graph { return graph.Random(n, m, seed) }

// HybridGraph returns the paper's hybrid random/scale-free graph: a
// preferential-attachment kernel on 2*sqrt(n) vertices plus random fill.
func HybridGraph(n, m int64, seed uint64) *Graph { return graph.Hybrid(n, m, seed) }

// RMATGraph returns an RMAT (Kronecker) graph on 2^scale vertices.
func RMATGraph(scale int, m int64, a, b, c, d float64, seed uint64) *Graph {
	return graph.RMAT(scale, m, a, b, c, d, seed)
}

// WithRandomWeights returns a copy of g with uniform random edge weights.
func WithRandomWeights(g *Graph, seed uint64) *Graph { return graph.WithRandomWeights(g, seed) }

// PermuteVertices relabels g's vertices by a random permutation.
func PermuteVertices(g *Graph, seed uint64) *Graph { return graph.PermuteVertices(g, seed) }

// Collective option presets. A KernelSpec with a nil Col runs on
// BaseCollectives(); passing them explicitly produces identical results
// (tested by TestNilOptionsMatchDefaults). The paper's fully optimized run
// is KernelSpec{Col: OptimizedCollectives(t'), Compact: true}.

// OptimizedCollectives returns the paper's fully optimized collective
// configuration with t' virtual threads.
func OptimizedCollectives(virtualThreads int) *CollectiveOptions {
	return collective.Optimized(virtualThreads)
}

// BaseCollectives returns the unoptimized (coalescing-only) configuration,
// the one a kernel called with nil *CollectiveOptions runs. VirtualThreads
// is 1 (the canonical "no cache blocking" spelling that
// (*CollectiveOptions).Validate accepts).
func BaseCollectives() *CollectiveOptions { return collective.Base() }

// Cluster is a handle to one simulated PGAS machine. It owns the runtime
// and the collective communication state; create it once and run any
// number of kernels on it.
type Cluster struct {
	rt   *pgas.Runtime
	comm *collective.Comm
}

// NewCluster validates cfg and builds a cluster. Geometry the collective
// layer cannot serve (more than MaxCollectiveThreads total threads) is
// reported as an error here rather than a panic deep in the internals.
func NewCluster(cfg MachineConfig) (*Cluster, error) {
	if err := collective.ValidateGeometry(cfg.Nodes * cfg.ThreadsPerNode); err != nil {
		return nil, err
	}
	rt, err := pgas.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{rt: rt, comm: collective.NewComm(rt)}, nil
}

// MaxCollectiveThreads is the largest total thread count (nodes ×
// threads-per-node) the collectives' int32 owner keys can name; NewCluster
// rejects configurations beyond it.
const MaxCollectiveThreads = collective.MaxThreads

// Config returns the cluster's machine configuration.
func (c *Cluster) Config() MachineConfig { return c.rt.Config() }

// Threads returns the total thread count.
func (c *Cluster) Threads() int { return c.rt.NumThreads() }

// Runtime exposes the underlying PGAS runtime for advanced use (custom
// kernels over shared arrays and collectives).
func (c *Cluster) Runtime() *pgas.Runtime { return c.rt }

// Comm exposes the underlying collective state for advanced use.
func (c *Cluster) Comm() *collective.Comm { return c.comm }

// BFSUnreached marks vertices a BFS did not reach.
const BFSUnreached = bfs.Unreached

// SSSPUnreached marks vertices with no path from the source.
const SSSPUnreached = sssp.Unreached

// RandomChainList builds one random chain over n nodes.
func RandomChainList(n int64, seed uint64) *List { return listrank.RandomList(n, seed) }

// ChainsList builds k disjoint random chains over n nodes.
func ChainsList(n, k int64, seed uint64) *List { return listrank.Chains(n, k, seed) }

// Sequential baselines.

// SequentialCC returns canonical component labels via union-find.
func SequentialCC(g *Graph) []int64 { return seq.CC(g) }

// SequentialCCTime returns labels plus the simulated time of the best
// sequential implementation on the given machine.
func SequentialCCTime(g *Graph, cfg MachineConfig) ([]int64, float64) {
	return seq.CCTimed(g, sim.NewModel(cfg))
}

// KruskalTime returns the minimum spanning forest via sequential Kruskal
// plus its simulated sequential time, charged with the cache-friendly
// merge sort of the paper's best sequential MST.
func KruskalTime(g *Graph, cfg MachineConfig) (*MSF, float64) {
	return seq.KruskalTimed(g, sim.NewModel(cfg))
}

// CountComponents returns the number of distinct labels in a labeling.
func CountComponents(labels []int64) int64 { return seq.CountComponents(labels) }
