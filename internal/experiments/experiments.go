// Package experiments regenerates every figure of the paper's evaluation
// (Figures 2-10; the paper reports no result tables) at a configurable
// scale. Each experiment in All executes the real kernels on the simulated
// cluster and returns the same series the paper plots; Table() renders
// them and CheckShape() asserts the paper's qualitative findings — who
// wins, by roughly what factor, where the extrema fall — which is what
// this reproduction claims to preserve (see DESIGN.md §2).
//
// Scaling: inputs shrink by Config.Scale relative to the paper's (100M+
// vertex) graphs, and the modeled cache shrinks proportionally (times
// CacheScale) so that the working-set-to-cache ratios that drive the
// paper's cache effects are preserved at the smaller scale.
package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/report"
	"pgasgraph/internal/serve"
)

// Result is what every experiment yields: the table of the series it
// measured, and the check of the paper's qualitative finding on them.
type Result interface {
	Table() *report.Table
	CheckShape() error
}

// Experiment is one figure or extension experiment under the name
// pgasbench takes on its command line.
type Experiment struct {
	Name string
	Run  func(Config) Result
}

// experiment registers a runner under its concrete result type: the
// package's own tests and internal/bench read those types field by field,
// and a func returning *Fig02 is not a func returning Result.
func experiment[R Result](name string, run func(Config) R) Experiment {
	return Experiment{name, func(c Config) Result { return run(c) }}
}

// All lists every experiment: the paper's Figures 2-10 in order, then the
// extension experiments.
func All() []Experiment {
	return []Experiment{
		experiment("fig2", RunFig02),
		experiment("fig3", runFig03),
		experiment("fig4", RunFig04),
		experiment("fig5", runFig05),
		experiment("fig6", RunFig06),
		experiment("fig7", runFig07),
		experiment("fig8", runFig08),
		experiment("fig9", runFig09),
		experiment("fig10", runFig10),
		experiment("listrank", runListRank),
		experiment("bfs", runBFS),
		experiment("ccmerge", runCCMerge),
		experiment("outofcore", runOutOfCore),
		experiment("scaling", runScaling),
		experiment("sensitivity", runSensitivity),
		experiment("sssp", runSSSP),
		experiment("hybrid", runHybrid),
	}
}

// Config controls experiment scale and the modeled machine.
type Config struct {
	// Scale is the input-size fraction of the paper's experiments
	// (1.0 = the paper's 100M-vertex graphs). Default 0.01.
	Scale float64
	// Nodes is the cluster node count. Default 16 (the paper's).
	Nodes int
	// Seed feeds the graph generators. Default 42.
	Seed uint64
	// CacheScale multiplies the proportionally scaled cache size;
	// it positions the virtual-thread sweet spot at the paper's t'
	// range. Default 3.5.
	CacheScale float64
	// Base is the machine preset to scale. Nil means PaperCluster.
	Base *machine.Config
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.CacheScale <= 0 {
		c.CacheScale = 3.5
	}
	if c.Base == nil {
		base := machine.PaperCluster()
		c.Base = &base
	}
	return c
}

// N scales a paper vertex/edge count, with a floor that keeps tiny test
// scales structurally meaningful.
func (c Config) N(paperCount int64) int64 {
	n := int64(float64(paperCount) * c.Scale)
	if n < 256 {
		n = 256
	}
	return n
}

// Machine returns the scaled machine: the requested geometry plus a cache
// shrunk in proportion to the inputs so miss ratios match the paper's.
func (c Config) Machine(nodes, threadsPerNode int) machine.Config {
	m := *c.Base
	m.Nodes = nodes
	m.ThreadsPerNode = threadsPerNode
	cache := int64(float64(m.CacheBytes) * c.Scale * c.CacheScale)
	if cache < 4096 {
		cache = 4096
	}
	m.CacheBytes = cache
	return m
}

// Runtime builds a runtime for the scaled machine, panicking on invalid
// geometry (experiment configs are code, not user input).
func (c Config) Runtime(nodes, threadsPerNode int) *pgas.Runtime {
	rt, err := pgas.New(c.Machine(nodes, threadsPerNode))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rt
}

// run runs one registry kernel on a fresh scaled nodes x threadsPerNode
// machine, panicking on a refused spec like Runtime on a bad geometry.
func (c Config) run(nodes, threadsPerNode int, spec serve.KernelSpec) *serve.KernelResult {
	rt := c.Runtime(nodes, threadsPerNode)
	res, err := serve.RunKernel(rt, collective.NewComm(rt), spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// RandomGraph generates the scaled uniform random graph for the given
// paper-scale dimensions.
func (c Config) RandomGraph(paperN, paperM int64) *graph.Graph {
	return graph.Random(c.N(paperN), c.N(paperM), c.Seed)
}

// HybridGraph generates the scaled hybrid graph.
func (c Config) HybridGraph(paperN, paperM int64) *graph.Graph {
	return graph.Hybrid(c.N(paperN), c.N(paperM), c.Seed)
}

// Paper input dimensions referenced across figures.
const (
	paper100M = 100_000_000
	paper200M = 200_000_000
	paper400M = 400_000_000
	paper800M = 800_000_000
	paper1G   = 1_000_000_000
	paper10M  = 10_000_000
	paper40M  = 40_000_000
)
