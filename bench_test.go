// Ablation benchmarks for the design choices DESIGN.md calls out and
// micro-benchmarks of the substrates.
//
//	go test -bench=. -benchmem
//
// The per-row benchmarks (BenchmarkRows, one sub-benchmark per figure and
// extension experiment, each reporting its simulated ms) sit with the
// rows they run: go test -bench=. ./internal/experiments.
package pgasgraph

import (
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/psort"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
)

// Ablation benchmarks: each §V optimization toggled alone against the
// fully optimized configuration, on a fixed cluster and input.

func ablationCluster(b *testing.B) (*Cluster, *Graph) {
	b.Helper()
	cfg := PaperCluster()
	cfg.ThreadsPerNode = 8
	cfg.CacheBytes = 64 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c, RandomGraph(100_000, 400_000, 42)
}

// benchRun is Cluster.Run for a benchmark body: no oracle, errors fatal.
func benchRun(b *testing.B, c *Cluster, spec KernelSpec) *KernelResult {
	res, err := c.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchCCVariant(b *testing.B, mutate func(*CollectiveOptions)) {
	c, g := ablationCluster(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		col := collective.Optimized(2)
		mutate(col)
		sim = benchRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: col, Compact: true}).Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

func BenchmarkAblationFullyOptimized(b *testing.B) {
	benchCCVariant(b, func(*CollectiveOptions) {})
}

func BenchmarkAblationNoCircular(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Circular = false })
}

func BenchmarkAblationNoLocalCpy(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.LocalCpy = false })
}

func BenchmarkAblationNoOffload(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Offload = false })
}

func BenchmarkAblationNoCachedIDs(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.CachedIDs = false })
}

func BenchmarkAblationNoBlocking(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.VirtualThreads = 1 })
}

func BenchmarkAblationQuicksort(b *testing.B) {
	benchCCVariant(b, func(o *CollectiveOptions) { o.Sort = collective.QuickSort })
}

func BenchmarkAblationNoCompact(b *testing.B) {
	c, g := ablationCluster(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = benchRun(b, c, KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(2)}).Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

// BenchmarkAblationRDMA measures the large-message RDMA path (§V).
func BenchmarkAblationRDMA(b *testing.B) {
	cfg := PaperCluster()
	cfg.ThreadsPerNode = 8
	cfg.RDMA = true
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := RandomGraph(100_000, 400_000, 42)
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = benchRun(b, c, optimized("cc/coalesced", g, 2)).Run.SimMS()
	}
	b.ReportMetric(sim, "sim-ms")
}

// BenchmarkAblationHierarchicalA2A measures the node-level all-to-all the
// paper proposes as future runtime work, at the thread count where the
// flat all-to-all collapses (16 threads/node).
func BenchmarkAblationHierarchicalA2A(b *testing.B) {
	for _, hier := range []bool{false, true} {
		name := "flat"
		if hier {
			name = "hierarchical"
		}
		b.Run(name, func(b *testing.B) {
			cfg := PaperCluster()
			cfg.HierarchicalA2A = hier
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			g := RandomGraph(100_000, 400_000, 42)
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = benchRun(b, c, optimized("cc/coalesced", g, 1)).Run.SimMS()
			}
			b.ReportMetric(sim, "sim-ms")
		})
	}
}

// Steady-state collective micro-benchmarks: all b.N calls run inside one
// SPMD region with per-thread request and output buffers allocated once,
// so `-benchmem` reports the collective layer's own steady-state
// allocation behavior (the numbers BENCH_collectives.json baselines).

func collectiveSteadyCluster(b *testing.B) (*Cluster, [][]int64, [][]int64, [][]int64) {
	b.Helper()
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := c.Threads()
	const k = 1 << 11
	idx := make([][]int64, s)
	vals := make([][]int64, s)
	out := make([][]int64, s)
	for t := 0; t < s; t++ {
		rng := xrand.New(uint64(t) + 1)
		idx[t] = make([]int64, k)
		vals[t] = make([]int64, k)
		out[t] = make([]int64, k)
		for j := range idx[t] {
			idx[t][j] = rng.Int64n(1 << 16)
			vals[t][j] = rng.Int63()
		}
	}
	return c, idx, vals, out
}

func benchCollectiveSteady(b *testing.B, body func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache)) {
	c, idx, vals, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	opts := collective.Optimized(4)
	caches := make([]collective.IDCache, c.Threads())
	call := func(th *pgas.Thread) {
		body(c, th, d, idx[th.ID], vals[th.ID], out[th.ID], opts, &caches[th.ID])
	}
	steadyRegion(b, rt, call, call)
}

// steadyRegion runs warm once and then body b.N times on every thread of
// one region, the timer bracketing the b.N calls alone: the warm call
// grows every thread's scratch, and the region's own start and teardown
// stay outside the barriers around the timer.
func steadyRegion(b *testing.B, rt *pgas.Runtime, warm, body func(th *pgas.Thread)) {
	rt.Run(func(th *pgas.Thread) {
		warm(th)
		th.Barrier()
		if th.ID == 0 {
			b.ResetTimer()
		}
		th.Barrier()
		for i := 0; i < b.N; i++ {
			body(th)
		}
		th.Barrier()
		if th.ID == 0 {
			b.StopTimer()
		}
	})
}

// TestCollectiveSteadyCountsAllocs: the steady-state harness reports the
// allocations its body makes — a GetD into a fresh output buffer reads at
// least one alloc/op — so its 0 allocs/op on the collectives is theirs.
func TestCollectiveSteadyCountsAllocs(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
			c.Comm().GetD(th, d, idx, make([]int64, len(idx)), opts, cache)
		})
	})
	if res.N == 0 || res.AllocsPerOp() < 1 {
		t.Fatalf("allocating body read %d allocs/op over %d ops, want >= 1", res.AllocsPerOp(), res.N)
	}
}

func BenchmarkCollectiveGetD(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().GetD(th, d, idx, out, opts, cache)
	})
}

func BenchmarkCollectiveSetD(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().SetD(th, d, idx, vals, opts, cache)
	})
}

func BenchmarkCollectiveSetDMin(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().SetDMin(th, d, idx, vals, opts, cache)
	})
}

func BenchmarkCollectiveExchange(b *testing.B) {
	benchCollectiveSteady(b, func(c *Cluster, th *pgas.Thread, d *pgas.SharedArray, idx, vals, out []int64, opts *CollectiveOptions, cache *collective.IDCache) {
		c.Comm().Exchange(th, d, idx, opts, cache)
	})
}

// BenchmarkCollectiveGetDCheckpointed is BenchmarkCollectiveGetD with the
// superstep checkpoint manager armed (snapshot at every barrier, chaos
// disarmed) and D registered. The steady state must stay 0 allocs/op:
// the snapshot path's shadow buffers are allocated once at registration,
// and every per-barrier copy reuses them.
func BenchmarkCollectiveGetDCheckpointed(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	rt.ArmCheckpoints()
	pgas.Register(rt, "D", d)
	opts := collective.Optimized(4)
	caches := make([]collective.IDCache, c.Threads())
	call := func(th *pgas.Thread) { // the warm call fills the arenas and shadow buffers
		c.Comm().GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
	}
	steadyRegion(b, rt, call, call)
}

// BenchmarkCollectivePlanReuse measures the plan-reuse steady state: the
// grouping sort and matrix publish run once (untimed, in the warm call),
// and every timed op is a pure phase-2 execution — the cost a
// fixed-request kernel iteration actually pays.
func BenchmarkCollectivePlanReuse(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	opts := collective.Optimized(4)
	plan := c.Comm().NewPlan()
	exec := func(th *pgas.Thread) { plan.GetD(th, d, out[th.ID]) }
	steadyRegion(b, rt, func(th *pgas.Thread) {
		plan.PlanRequests(th, d, idx[th.ID], opts, nil)
		exec(th) // warm the serve scratch
	}, exec)
}

// BenchmarkCollectiveGetDCombined is BenchmarkCollectiveGetD on a
// label-valued request vector — the same lists folded onto 64 roots, a
// late pointer-jumping level — through the combining entry. The warm-up
// call allocates the filter's table; steady state is 0 allocs/op.
func BenchmarkCollectiveGetDCombined(b *testing.B) {
	c, idx, _, out := collectiveSteadyCluster(b)
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	opts := collective.Optimized(4)
	call := func(th *pgas.Thread) { c.Comm().GetDCombined(th, d, idx[th.ID], out[th.ID], opts) }
	steadyRegion(b, rt, func(th *pgas.Thread) {
		roots := idx[th.ID]
		for j := range roots {
			roots[j] %= 64
		}
		call(th)
	}, call)
}

// Substrate micro-benchmarks.

func BenchmarkGetD(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt := c.Runtime()
	d := rt.NewSharedArray("D", 1<<16)
	d.FillIdentity()
	rng := xrand.New(1)
	idx := make([]int64, 1<<12)
	for i := range idx {
		idx[i] = rng.Int64n(1 << 16)
	}
	opts := collective.Optimized(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(th *pgas.Thread) {
			out := make([]int64, len(idx))
			c.Comm().GetD(th, d, idx, out, opts, nil)
		})
	}
}

func BenchmarkSeqKruskal(b *testing.B) {
	g := WithRandomWeights(RandomGraph(100_000, 400_000, 1), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Kruskal(g)
	}
}

func BenchmarkSeqUnionFindCC(b *testing.B) {
	g := RandomGraph(100_000, 400_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.CC(g)
	}
}

func BenchmarkGeneratorRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Random(100_000, 400_000, uint64(i))
	}
}

func BenchmarkGeneratorHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Hybrid(100_000, 400_000, uint64(i))
	}
}

func BenchmarkSortCount(b *testing.B) {
	rng := xrand.New(1)
	const k = 1 << 16
	items := make([]int64, k)
	keys := make([]int32, k)
	for i := range items {
		items[i] = rng.Int63()
		keys[i] = int32(rng.Int64n(128))
	}
	sorted := make([]int64, k)
	pos := make([]int32, k)
	offs := make([]int64, 129)
	cursor := make([]int64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psort.BucketByKeyInto(items, keys, 128, sorted, pos, offs, cursor)
	}
}

// Kernel micro-benchmarks on a small fixed cluster: every registry row,
// fully optimized, on one random graph (its weighted twin, or one random
// chain, where the row needs it).

func BenchmarkKernel(b *testing.B) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 4
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := optimized("", WithRandomWeights(RandomGraph(50_000, 200_000, 3), 4), 2)
	spec.List = RandomChainList(50_000, 7)
	for _, name := range Kernels() {
		spec.Kernel = name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, c, spec)
			}
		})
	}
}
