package main

import (
	"fmt"

	"pgasgraph/client"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/serve"
)

// Fixed run shape. BENCHMARK.json admits only its six contract keys, so
// the op counts, yardstick references and bounds it cannot hold are fixed
// here; README.md repeats them.

// runSeconds is BENCHMARK.json's run_seconds: the nominal length of the
// timed op sequence on the reference host. --seconds scales the fixed op
// counts below by seconds/runSeconds, so a given --seconds always means
// the same op sequence — a run is never cut by a clock.
const runSeconds = 12

// Yardstick reference values: the run-means over this PR's A/A runs on
// the 2-vCPU host the benchmark was defined on. A run's level is the
// geometric mean of its two yardstick means over these; normalised time =
// wall / level, i.e. "ms on the reference host". Written once; changing
// them rescales every normalised metric.
const (
	yardCPURefMS  = 7.0
	yardSockRefMS = 2.3
)

// endToEndMetric is one BENCHMARK.json end_to_end entry; bound is the
// share of the parent's median by which it may worsen, and the spread an
// A/A series may show.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
}

// endToEnd is the same seven metrics on every workload, in report order.
var endToEnd = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.08},
	{"resident_mb", "MB", "lower", 0.05},
	{"sock_kb_per_op", "KB", "lower", 0.03},
	{"sim_ms", "ms", "lower", 0.15},
}

// Geometry and kernel options shared by every workload: the pgasd /
// pgasbench default cluster with the paper's fully optimised collectives.
const (
	nodes          = 4
	threadsPerNode = 2
)

func machineConfig() machine.Config {
	c := machine.PaperCluster()
	c.Nodes = nodes
	c.ThreadsPerNode = threadsPerNode
	return c
}

func colOptions() *collective.Options { return collective.Optimized(2) }

// shape is one workload's fixed sizes.
type shape struct {
	logN        uint // 2^logN vertices
	logM        uint // 2^logM edges
	ops         int  // timed ops at --seconds == runSeconds
	perSlice    int  // ops per slice (≈0.3–0.5 s)
	perCluster  int  // cc-wire: timed ops per cluster (multiple of perSlice)
	lookups     int  // lookups per query batch
	insertEdges int  // edges per insert batch
	setups      int  // program-side set-ups per run; setup_s is their median
	yardReps    int  // readings of each yardstick per slice boundary
}

// scaled returns the shape for a --seconds value: op count proportional,
// rounded to whole slices (whole clusters on cc-wire), at least one.
func (s shape) scaled(seconds int) shape {
	unit := s.perSlice
	if s.perCluster > 0 {
		unit = s.perCluster
	}
	units := (s.ops*seconds + runSeconds*unit/2) / (runSeconds * unit)
	if units < 1 {
		units = 1
	}
	s.ops = units * unit
	return s
}

// workloadSpec is one BENCHMARK.json workload.
type workloadSpec struct {
	name  string
	shape shape
	// load is the workload's input graph as a generator request, so the
	// probes can rebuild it.
	load  func(sh shape, seed uint64) client.LoadReq
	build func(seed uint64, sh shape, dir string) workload
}

// The paper's two input classes (§III): uniform random for the kernels,
// hybrid scale-free — weighted, for sssp — for the query service, and a
// sparse many-component random graph for inserts to merge.
func ccLoad(sh shape, seed uint64) client.LoadReq {
	return client.LoadReq{Family: "random", N: 1 << sh.logN, M: 1 << sh.logM, Seed: seed}
}

func queryLoad(sh shape, seed uint64) client.LoadReq {
	return client.LoadReq{Family: "hybrid", N: 1 << sh.logN, M: 1 << sh.logM, Seed: seed, Weighted: true}
}

// pickInput turns --seed into the generator request a run uses: the first
// of the seed's candidates (the seed itself, then a stream derived from
// it) whose graph has vertex 0 in its largest component, and that graph.
// The program pins D[0] (collective.Options.Offload), so an input with
// vertex 0 outside the giant component runs in another mode — one more
// round and +36 % allocation per insert batch on serve-insert, where one
// random input in five is of that kind. One workload must be one mode, or
// its spread across seeds measures the input lottery, not the program.
func pickInput(load func(shape, uint64) client.LoadReq, sh shape, seed uint64) (client.LoadReq, *graph.Graph, error) {
	r := newRand(seed)
	for try, candidate := 0, seed; try < 64; try, candidate = try+1, r.next() {
		req := load(sh, candidate)
		g, err := serve.Generate(&req)
		if err != nil {
			return req, nil, err
		}
		uf := oracleCC(g.N, g.U, g.V)
		largest := int64(0)
		for v := int64(0); v < g.N; v++ {
			if s := uf.compSize(v); s > largest {
				largest = s
			}
		}
		if uf.compSize(0) == largest {
			return req, g, nil
		}
	}
	return client.LoadReq{}, nil, fmt.Errorf("seed %d: no candidate input has vertex 0 in its largest component", seed)
}

var workloadSpecs = []workloadSpec{
	{
		name: "cc-inproc", load: ccLoad,
		shape: shape{logN: 18, logM: 20, ops: 60, perSlice: 2, setups: 5, yardReps: yardReps},
		build: func(seed uint64, sh shape, dir string) workload { return newCCInproc(seed, sh) },
	},
	{
		name: "cc-wire", load: ccLoad,
		shape: shape{logN: 18, logM: 20, ops: 30, perSlice: 1, perCluster: 10, setups: 3, yardReps: yardReps},
		build: func(seed uint64, sh shape, dir string) workload { return newCCWire(seed, sh, dir) },
	},
	{
		name: "serve-query", load: queryLoad,
		shape: shape{logN: 18, logM: 20, ops: 24000, perSlice: 500, lookups: 128, setups: 3, yardReps: yardReps},
		build: func(seed uint64, sh shape, dir string) workload { return newServeQuery(seed, sh, dir) },
	},
	{
		name: "serve-insert", load: ccLoad,
		shape: shape{logN: 18, logM: 18, ops: 360, perSlice: 10, lookups: 128, insertEdges: 64, setups: 7, yardReps: yardReps},
		build: func(seed uint64, sh shape, dir string) workload { return newServeInsert(seed, sh, dir) },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
