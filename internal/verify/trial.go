package verify

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/xrand"
)

// Trial is one sampled point of the verification matrix: a machine
// geometry, a collective option vector, and a coherent set of inputs
// (unweighted graph, weighted twin, linked list, source, delta). Every
// field derives deterministically from Seed, so a trial is reproducible
// from its (harness seed, round) coordinates alone.
type Trial struct {
	// Round is the trial's index within the harness run.
	Round int
	// Seed is the trial's private random stream seed.
	Seed uint64
	// Machine is the modeled cluster the kernels run on.
	Machine machine.Config
	// Opts is the collective option vector under test.
	Opts collective.Options
	// Compact enables edge compaction in the CC/MST kernels.
	Compact bool
	// GraphName names the graph family for reporting.
	GraphName string
	// Graph is the unweighted input.
	Graph *graph.Graph
	// WGraph is Graph with deterministic random weights (for MST/SSSP).
	WGraph *graph.Graph
	// List is the list-ranking input.
	List *listrank.List
	// Src is the BFS/SSSP source vertex.
	Src int64
	// Delta is the SSSP bucket width (0 selects the kernel default).
	Delta int64
}

// String summarizes the trial compactly for failure reports.
func (t *Trial) String() string {
	return fmt.Sprintf("round=%d seed=%#x machine=%dx%d%s opts=%s graph=%s(n=%d,m=%d) list=%d src=%d delta=%d compact=%v",
		t.Round, t.Seed, t.Machine.Nodes, t.Machine.ThreadsPerNode, machineFlags(&t.Machine),
		optsString(&t.Opts), t.GraphName, t.Graph.N, t.Graph.M(), t.List.N, t.Src, t.Delta, t.Compact)
}

func machineFlags(m *machine.Config) string {
	s := ""
	if m.RDMA {
		s += "+rdma"
	}
	if m.HierarchicalA2A {
		s += "+hier"
	}
	if m.NICSerialization {
		s += "+nicser"
	}
	if m.CacheBytes <= 4096 {
		s += "+starved"
	}
	return s
}

func optsString(o *collective.Options) string {
	s := fmt.Sprintf("vt=%d", o.VirtualThreads)
	if o.Circular {
		s += "+circ"
	}
	if o.LocalCpy {
		s += "+localcpy"
	}
	if o.CachedIDs {
		s += "+id"
	}
	if o.Offload {
		s += "+offload"
	}
	if o.Sort == collective.QuickSort {
		s += "+qsort"
	}
	return s
}

// withGraph returns a copy of t on a different graph, re-deriving the
// weighted twin from the trial's seed and clamping the source. Used by
// shrinking.
func (t *Trial) withGraph(g *graph.Graph) *Trial {
	c := *t
	c.Graph = g
	c.WGraph = graph.WithRandomWeights(g, t.Seed)
	if c.Src >= g.N {
		c.Src = 0
	}
	return &c
}

// withMachine returns a copy of t on a different machine geometry.
func (t *Trial) withMachine(nodes, tpn int) *Trial {
	c := *t
	c.Machine.Nodes = nodes
	c.Machine.ThreadsPerNode = tpn
	return &c
}

// withList returns a copy of t with a different list input.
func (t *Trial) withList(l *listrank.List) *Trial {
	c := *t
	c.List = l
	return &c
}

// graphFamilies enumerates the sampled input families. Each builder must
// tolerate the full size range it is offered.
var graphFamilies = []struct {
	name  string
	build func(r *xrand.Rand, maxN int64) *graph.Graph
}{
	{"random", func(r *xrand.Rand, maxN int64) *graph.Graph {
		n := 2 + r.Int64n(maxN)
		m := r.Int64n(min(3*n, n*(n-1)/2) + 1)
		return graph.Random(n, m, r.Uint64())
	}},
	{"hybrid", func(r *xrand.Rand, maxN int64) *graph.Graph {
		n := 16 + r.Int64n(maxN)
		m := r.Int64n(min(3*n, n*(n-1)/2) + 1)
		return graph.Hybrid(n, m, r.Uint64())
	}},
	{"rmat", func(r *xrand.Rand, maxN int64) *graph.Graph {
		scale := 3 + r.Intn(6)
		n := int64(1) << scale
		if n > maxN {
			n = maxN
		}
		for int64(1)<<scale > maxN && scale > 3 {
			scale--
		}
		m := 1 + r.Int64n(int64(1)<<scale)
		return graph.RMAT(scale, m, 0.45, 0.25, 0.15, 0.15, r.Uint64())
	}},
	{"grid", func(r *xrand.Rand, maxN int64) *graph.Graph {
		rows := 1 + r.Int64n(20)
		cols := 1 + r.Int64n(20)
		return graph.Grid(rows, cols)
	}},
	{"path", func(r *xrand.Rand, maxN int64) *graph.Graph {
		return graph.Path(1 + r.Int64n(maxN))
	}},
	{"cycle", func(r *xrand.Rand, maxN int64) *graph.Graph {
		return graph.Cycle(3 + r.Int64n(maxN))
	}},
	{"star", func(r *xrand.Rand, maxN int64) *graph.Graph {
		return graph.Star(2 + r.Int64n(maxN))
	}},
	{"complete", func(r *xrand.Rand, maxN int64) *graph.Graph {
		return graph.Complete(2 + r.Int64n(24))
	}},
	{"empty", func(r *xrand.Rand, maxN int64) *graph.Graph {
		return graph.Empty(1 + r.Int64n(maxN))
	}},
	{"disjoint", func(r *xrand.Rand, maxN int64) *graph.Graph {
		third := maxN/3 + 2
		blobN := 2 + r.Int64n(third)
		blobM := r.Int64n(min(3*blobN, blobN*(blobN-1)/2) + 1)
		return graph.Disjoint(
			graph.Random(blobN, blobM, r.Uint64()),
			graph.Grid(1+r.Int64n(8), 1+r.Int64n(8)),
			graph.Empty(1+r.Int64n(8)),
		)
	}},
	{"permuted-hybrid", func(r *xrand.Rand, maxN int64) *graph.Graph {
		n := 16 + r.Int64n(maxN)
		m := r.Int64n(min(3*n, n*(n-1)/2) + 1)
		return graph.PermuteVertices(graph.Hybrid(n, m, r.Uint64()), r.Uint64())
	}},
	{"smallworld", func(r *xrand.Rand, maxN int64) *graph.Graph {
		n := 8 + r.Int64n(maxN)
		k := 2 + 2*r.Intn(3) // 2, 4, 6
		if int64(k) >= n {
			k = 2
		}
		return graph.SmallWorld(n, k, r.Float64(), r.Uint64())
	}},
}

// geometries are the sampled machine shapes (nodes x threads-per-node),
// bounded so one trial's goroutine count stays small.
var geometries = [][2]int{
	{1, 1}, {1, 2}, {1, 4}, {1, 8},
	{2, 1}, {2, 2}, {2, 4},
	{3, 1}, {3, 2},
	{4, 1}, {4, 2},
}

// sampleTrial draws one trial from the randomized matrix. All sampling
// flows from rng, which the caller seeds per round.
func sampleTrial(rng *xrand.Rand, round int, maxN int64) *Trial {
	if maxN < 8 {
		maxN = 8
	}
	t := &Trial{Round: round, Seed: rng.Uint64()}

	// Machine: geometry x base calibration x model flags.
	geo := geometries[rng.Intn(len(geometries))]
	var cfg machine.Config
	if rng.Intn(2) == 0 {
		cfg = machine.PaperCluster()
	} else {
		cfg = machine.ModernCluster()
	}
	cfg.Nodes, cfg.ThreadsPerNode = geo[0], geo[1]
	if rng.Intn(4) == 0 {
		cfg.RDMA = true
	}
	if rng.Intn(4) == 0 {
		cfg.HierarchicalA2A = true
	}
	if rng.Intn(5) == 0 {
		cfg.CacheBytes = 4096
	}
	if rng.Intn(8) == 0 {
		cfg.NICSerialization = true
	}
	t.Machine = cfg

	// Collective options: every documented optimization toggled
	// independently, both grouping sorts.
	t.Opts = collective.Options{
		VirtualThreads: []int{0, 0, 2, 3, 8}[rng.Intn(5)],
		Circular:       rng.Intn(2) == 0,
		LocalCpy:       rng.Intn(2) == 0,
		CachedIDs:      rng.Intn(2) == 0,
		Offload:        rng.Intn(2) == 0,
	}
	if rng.Intn(5) < 2 {
		t.Opts.Sort = collective.QuickSort
	}
	t.Compact = rng.Intn(2) == 0

	// Inputs.
	fam := graphFamilies[rng.Intn(len(graphFamilies))]
	t.GraphName = fam.name
	t.Graph = fam.build(rng.Split(0xf00d), maxN)
	t.WGraph = graph.WithRandomWeights(t.Graph, t.Seed)
	if rng.Intn(3) == 0 {
		t.List = listrank.Chains(1+rng.Int64n(maxN), 1+rng.Int64n(8), rng.Uint64())
	} else {
		t.List = listrank.RandomList(1+rng.Int64n(maxN), rng.Uint64())
	}
	t.Src = rng.Int64n(t.Graph.N)
	if rng.Intn(2) == 0 {
		t.Delta = 1 + rng.Int64n(64)
	}

	// A discarded draw: the chaos schedule reads this stream next, so
	// removing it would move every trial's faults and every pinned digest.
	rng.Intn(4)
	return t
}
