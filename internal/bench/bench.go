// Package bench produces the machine-readable benchmark records behind
// BENCH_collectives.json: steady-state wall-clock and allocation numbers
// for the collective hot path, plus the deterministic simulated times of
// the paper's key figures at a small scale. `pgasbench -json` writes
// them; CI compares a fresh run against the committed baseline.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"pgasgraph"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/experiments"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/report"
	"pgasgraph/internal/xrand"
)

// Config sizes a benchmark run. The zero value is not useful; use
// Defaults.
type Config struct {
	Nodes          int
	ThreadsPerNode int
	// Calls is how many collective invocations each thread performs
	// inside one timed SPMD region. More calls amortize region setup
	// further but lengthen the run.
	Calls int
	// Scale is the figure-experiment input fraction (see
	// experiments.Config.Scale).
	Scale float64
	Seed  uint64
}

// Defaults is the configuration the committed baseline uses: the
// steady-state geometry of the BenchmarkCollective* suite and the
// figure scale of the in-repo benchmarks.
func Defaults() Config {
	return Config{Nodes: 4, ThreadsPerNode: 4, Calls: 256, Scale: 0.002, Seed: 42}
}

// Run produces the full record set: collective micro-benchmarks and
// figure simulated times.
func Run(cfg Config) (*report.BenchReport, error) {
	rep := &report.BenchReport{
		Schema:         report.BenchSchema,
		Nodes:          cfg.Nodes,
		ThreadsPerNode: cfg.ThreadsPerNode,
		Calls:          cfg.Calls,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
	}
	col, err := Collectives(cfg)
	if err != nil {
		return nil, err
	}
	rep.Records = append(rep.Records, col...)
	rep.Records = append(rep.Records, Figures(cfg)...)
	part, err := Partitions(cfg)
	if err != nil {
		return nil, err
	}
	rep.Records = append(rep.Records, part...)
	conv, err := Convergence(cfg)
	if err != nil {
		return nil, err
	}
	rep.Records = append(rep.Records, conv...)
	return rep, nil
}

// Collectives measures the steady-state collective hot path: per-thread
// request lists of 2^11 indices on a 2^16-element array, every call
// inside one SPMD region after a warmup round, exactly like the
// BenchmarkCollective* suite. One "op" is one collective superstep (all
// threads calling once); allocations are a whole-process Mallocs delta
// with the empty-region overhead subtracted.
func Collectives(cfg Config) ([]report.BenchRecord, error) {
	c, err := pgasgraph.NewCluster(clusterConfig(cfg))
	if err != nil {
		return nil, err
	}
	rt := c.Runtime()
	s := c.Threads()
	const n = 1 << 16
	const k = 1 << 11
	d := rt.NewSharedArray("D", n)
	d2 := rt.NewSharedArray("D2", n)
	d.FillIdentity()
	d2.FillIdentity()
	idx := make([][]int64, s)
	roots := make([][]int64, s) // idx folded onto 64 roots: a late pointer-jumping level
	vals := make([][]int64, s)
	out := make([][]int64, s)
	out2 := make([][]int64, s)
	for t := 0; t < s; t++ {
		rng := xrand.New(cfg.Seed + uint64(t) + 1)
		idx[t] = make([]int64, k)
		roots[t] = make([]int64, k)
		vals[t] = make([]int64, k)
		out[t] = make([]int64, k)
		out2[t] = make([]int64, k)
		for j := range idx[t] {
			idx[t][j] = rng.Int64n(n)
			roots[t][j] = idx[t][j] % 64
			vals[t][j] = rng.Int63()
		}
	}
	opts := collective.Optimized(4)
	caches := make([]collective.IDCache, s)

	comm := c.Comm()
	// The reuse record's plan is built (and charged) in its own region
	// here, so every timed PlanReuse op is a pure phase-2 execution.
	plan := comm.NewPlan()
	rt.Run(func(th *pgas.Thread) {
		plan.PlanRequests(th, d, idx[th.ID], opts, nil)
	})
	ops := []struct {
		name string
		body func(th *pgas.Thread)
	}{
		{"collective/GetD", func(th *pgas.Thread) {
			comm.GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
		}},
		{"collective/SetD", func(th *pgas.Thread) {
			comm.SetD(th, d, idx[th.ID], vals[th.ID], opts, &caches[th.ID])
		}},
		{"collective/SetDMin", func(th *pgas.Thread) {
			comm.SetDMin(th, d, idx[th.ID], vals[th.ID], opts, &caches[th.ID])
		}},
		{"collective/Exchange", func(th *pgas.Thread) {
			comm.Exchange(th, d, idx[th.ID], opts, &caches[th.ID])
		}},
		{"collective/GetDPair", func(th *pgas.Thread) {
			comm.GetDPair(th, d, d2, idx[th.ID], out[th.ID], out2[th.ID], opts, nil)
		}},
		{"collective/PlanReuse", func(th *pgas.Thread) {
			plan.GetD(th, d, out[th.ID])
		}},
		{"collective/GetD+combine", func(th *pgas.Thread) {
			comm.GetDCombined(th, d, roots[th.ID], out[th.ID], opts)
		}},
	}

	overhead := emptyRegionMallocs(rt)
	records := make([]report.BenchRecord, 0, len(ops)+1)
	measure := func(name string, body func(th *pgas.Thread)) {
		rt.Run(func(th *pgas.Thread) { body(th) }) // warm the arenas
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res := rt.Run(func(th *pgas.Thread) {
			for i := 0; i < cfg.Calls; i++ {
				body(th)
			}
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) - overhead
		if allocs < 0 {
			allocs = 0
		}
		records = append(records, report.BenchRecord{
			Name:        name,
			NSPerOp:     float64(wall.Nanoseconds()) / float64(cfg.Calls),
			AllocsPerOp: allocs / float64(cfg.Calls),
			SimMS:       res.SimMS() / float64(cfg.Calls),
		})
	}
	for _, op := range ops {
		measure(op.name, op.body)
	}

	// The same GetD hot path with the superstep checkpoint manager armed
	// (chaos disarmed) and D registered, snapshotting at every barrier.
	// This baselines the recovery tax and pins the property that the
	// snapshot path allocates nothing in steady state — its shadow
	// buffers are allocated once at registration, never per barrier.
	rt.ArmCheckpoints(1)
	pgas.Register(rt, "D", d)
	measure("collective/GetD+ckpt", func(th *pgas.Thread) {
		comm.GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
	})
	rt.DisarmCheckpoints()
	return records, nil
}

func clusterConfig(cfg Config) pgasgraph.MachineConfig {
	c := pgasgraph.PaperCluster()
	c.Nodes = cfg.Nodes
	c.ThreadsPerNode = cfg.ThreadsPerNode
	return c
}

// emptyRegionMallocs measures the fixed allocation cost of one SPMD
// region (goroutine spawns, result assembly) so Collectives can subtract
// it and report the hot path's own behavior.
func emptyRegionMallocs(rt *pgas.Runtime) float64 {
	const rounds = 8
	rt.Run(func(th *pgas.Thread) {}) // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		rt.Run(func(th *pgas.Thread) {})
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / rounds
}

// Partitions records the simulated cost of the collective hot path under
// each partition scheme on the two skewed graph families (hybrid
// scale-free and RMAT). Each thread's request list is the endpoint ids of
// its share of the edges — the access pattern every kernel generates — so
// these records capture how ownership placement shifts remote traffic on
// skewed degree distributions. Simulated time is deterministic, making
// the records a tight regression signal for the partition dispatch path.
func Partitions(cfg Config) ([]report.BenchRecord, error) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hybrid", graph.Hybrid(1<<12, 1<<14, cfg.Seed)},
		{"rmat", graph.RMAT(12, 1<<14, 0.45, 0.25, 0.15, 0.15, cfg.Seed)},
	}
	schemes := []struct {
		name string
		spec func(g *graph.Graph) pgas.PartitionSpec
	}{
		{"block", func(*graph.Graph) pgas.PartitionSpec {
			return pgas.PartitionSpec{Kind: pgas.SchemeBlock}
		}},
		{"cyclic", func(*graph.Graph) pgas.PartitionSpec {
			return pgas.PartitionSpec{Kind: pgas.SchemeCyclic}
		}},
		{"hub", func(g *graph.Graph) pgas.PartitionSpec {
			return pgas.PartitionSpec{Kind: pgas.SchemeHub, Hubs: graph.Hubs(g, 64)}
		}},
	}

	var records []report.BenchRecord
	for _, in := range inputs {
		for _, sc := range schemes {
			c, err := pgasgraph.NewCluster(clusterConfig(cfg))
			if err != nil {
				return nil, err
			}
			rt := c.Runtime()
			if err := rt.SetPartition(sc.spec(in.g)); err != nil {
				return nil, fmt.Errorf("partition %s: %v", sc.name, err)
			}
			s := c.Threads()
			d := rt.NewSharedArray("D", in.g.N)
			d.FillIdentity()
			// Deal edges round-robin; a thread requests both endpoints of
			// each of its edges.
			idx := make([][]int64, s)
			vals := make([][]int64, s)
			for e := 0; e < int(in.g.M()); e++ {
				t := e % s
				idx[t] = append(idx[t], int64(in.g.U[e]), int64(in.g.V[e]))
				vals[t] = append(vals[t], int64(in.g.V[e]), int64(in.g.U[e]))
			}
			out := make([][]int64, s)
			for t := 0; t < s; t++ {
				out[t] = make([]int64, len(idx[t]))
			}
			opts := collective.Optimized(4)
			caches := make([]collective.IDCache, s)
			comm := c.Comm()
			res := rt.Run(func(th *pgas.Thread) {
				comm.GetD(th, d, idx[th.ID], out[th.ID], opts, &caches[th.ID])
				comm.SetDMin(th, d, idx[th.ID], vals[th.ID], opts, &caches[th.ID])
			})
			records = append(records, report.BenchRecord{
				Name:  fmt.Sprintf("partition/%s/%s", in.name, sc.name),
				SimMS: res.SimMS(),
			})
		}
	}
	return records, nil
}

// Convergence records the convergence round count and simulated time of
// every collective CC kernel on the two skewed graph families, dispatched
// through the uniform Cluster.Run registry. Round counts are
// deterministic (label evolution under monotone minimum writes does not
// depend on geometry or scheduling), so the Rounds column is an exact
// one-sided regression signal in CompareBench — and this function itself
// enforces the headline claim: FastSV must converge in strictly fewer
// rounds than Shiloach-Vishkin on RMAT (and never more on hybrid).
func Convergence(cfg Config) ([]report.BenchRecord, error) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hybrid", graph.Hybrid(1<<12, 1<<14, cfg.Seed)},
		{"rmat", graph.RMAT(12, 1<<14, 0.45, 0.25, 0.15, 0.15, cfg.Seed)},
	}
	kernels := []string{"cc/sv", "cc/fastsv", "cc/lt-prs", "cc/lt-pus", "cc/lt-ers"}

	var records []report.BenchRecord
	rounds := map[string]int{}
	for _, in := range inputs {
		for _, k := range kernels {
			c, err := pgasgraph.NewCluster(clusterConfig(cfg))
			if err != nil {
				return nil, err
			}
			res, err := c.Run(pgasgraph.KernelSpec{
				Kernel: k, Graph: in.g, Col: collective.Optimized(4), Compact: true,
			})
			if err != nil {
				return nil, fmt.Errorf("converge %s on %s: %v", k, in.name, err)
			}
			short := k[len("cc/"):]
			rounds[in.name+"/"+short] = res.Iterations
			records = append(records, report.BenchRecord{
				Name:   fmt.Sprintf("converge/%s/%s", in.name, short),
				SimMS:  res.Run.SimMS(),
				Rounds: float64(res.Iterations),
			})
		}
	}
	if fs, sv := rounds["rmat/fastsv"], rounds["rmat/sv"]; fs >= sv {
		return nil, fmt.Errorf("convergence claim violated: FastSV took %d rounds on rmat, SV %d (want strictly fewer)", fs, sv)
	}
	if fs, sv := rounds["hybrid/fastsv"], rounds["hybrid/sv"]; fs > sv {
		return nil, fmt.Errorf("convergence claim violated: FastSV took %d rounds on hybrid, SV %d (want no more)", fs, sv)
	}
	return records, nil
}

// Figures records the simulated milliseconds of the figure-2, figure-4,
// and figure-6 kernels at cfg.Scale: the headline series of the paper's
// evaluation, usable as a tight regression signal because simulated time
// does not depend on the host. The exception is the cc.Naive-derived
// series (fig2 naive/smp, fig4 smp): naive CC races unsynchronized
// one-sided ops, so its simulated time varies with goroutine scheduling —
// those records are marked Async and carry the run's convergence
// iteration count as RacyOps — naive CC's per-iteration work is a fixed
// edge scan, so simulated time scales with iterations — and CompareBench
// scales their tolerance by the racy-work ratio the schedule produced.
func Figures(cfg Config) []report.BenchRecord {
	ecfg := experiments.Config{Scale: cfg.Scale, Seed: cfg.Seed}
	var records []report.BenchRecord
	simRec := func(name string, ns float64) {
		records = append(records, report.BenchRecord{Name: name, SimMS: ns / 1e6})
	}
	asyncRec := func(name string, ns float64, racyIters int) {
		records = append(records, report.BenchRecord{
			Name: name, SimMS: ns / 1e6, Async: true, RacyOps: float64(racyIters),
		})
	}

	f2 := experiments.RunFig02(ecfg)
	for _, row := range f2.Rows {
		asyncRec(fmt.Sprintf("fig2/%s/naive", row.Name), row.NaiveNS, row.NaiveIters)
		asyncRec(fmt.Sprintf("fig2/%s/smp", row.Name), row.SMPNS, row.SMPIters)
	}
	f4 := experiments.RunFig04(ecfg)
	for i := range f4.Inputs {
		in := &f4.Inputs[i]
		simRec(fmt.Sprintf("fig4/%s/best", in.Name), in.NS[in.Best()])
		asyncRec(fmt.Sprintf("fig4/%s/smp", in.Name), in.SMPNS, in.SMPIters)
	}
	f6 := experiments.RunFig06(ecfg)
	for _, bar := range f6.Bars {
		simRec(fmt.Sprintf("fig6/%s", bar.Name), bar.TotalNS)
	}
	return records
}
