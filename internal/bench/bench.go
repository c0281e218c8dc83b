// Package bench produces the machine-readable benchmark records behind
// BENCH_collectives.json: steady-state wall-clock and allocation numbers
// for the collective hot path — the one measurement here that is not an
// experiment row, because it times the host — plus named selections of
// experiment rows' cells: the deterministic simulated times of the paper's
// key figures at a small scale and of the CC kernels' convergence.
// `pgasbench -json` writes them; CI compares a fresh run against the
// committed baseline.
package bench

import (
	"runtime"
	"time"

	"pgasgraph"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/experiments"
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

// Run produces the full record set: collective micro-benchmarks and the
// selected row cells.
func Run(cfg Config) (*report.BenchReport, error) {
	col, err := collectives(cfg)
	if err != nil {
		return nil, err
	}
	rows, err := records(selections(cfg))
	if err != nil {
		return nil, err
	}
	return &report.BenchReport{
		Schema:         report.BenchSchema,
		Nodes:          cfg.Nodes,
		ThreadsPerNode: cfg.ThreadsPerNode,
		Calls:          cfg.Calls,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Records:        append(col, rows...),
	}, nil
}

// selection names the row cells that become records: the series recorded
// at every point (nil: the row's one series, named by the point alone), and
// whether the row's shape claims gate the run.
type selection struct {
	row    experiments.Sweep
	cfg    experiments.Config
	series []string
	check  bool
}

// selections are the baseline's rows: the figures at cfg.Scale on the
// paper's 16 nodes; converge, whose inputs have a fixed size, at the
// steady-state geometry on the unscaled preset (Scale and CacheScale 1
// leave its cache as it is).
func selections(cfg Config) []selection {
	figures := experiments.Config{Scale: cfg.Scale, Seed: cfg.Seed}
	base := clusterConfig(cfg)
	fixed := experiments.Config{Scale: 1, CacheScale: 1, Nodes: cfg.Nodes, Seed: cfg.Seed, Base: &base}
	return []selection{
		{experiments.Row("fig2"), figures, []string{"naive", "smp"}, false},
		{experiments.Row("fig4"), figures, []string{"best", "smp"}, false},
		{experiments.Row("fig6"), figures, nil, false},
		{experiments.Row("converge"), fixed, nil, true},
	}
}

// records runs every selected row and lays its cells out as records named
// row/point[/series]. A kernel's iterations are Rounds, held to a one-sided
// exact bound.
func records(sels []selection) ([]report.BenchRecord, error) {
	var out []report.BenchRecord
	add := func(name string, m experiments.Measure) {
		rec := report.BenchRecord{Name: name, SimMS: m.NS / 1e6}
		if m.Kernel != "" {
			rec.Rounds = float64(m.Iterations)
		}
		out = append(out, rec)
	}
	for _, sel := range sels {
		r := sel.row.Run(sel.cfg)
		if sel.check {
			if _, _, err := r.CheckShape(); err != nil {
				return nil, err
			}
		}
		for i, p := range r.Points {
			name := sel.row.Name + "/" + p.Label
			if sel.series == nil {
				add(name, r.Measures[i][0])
			}
			for _, s := range sel.series {
				add(name+"/"+s, r.Cell(i, s))
			}
		}
	}
	return out, nil
}

// collectives measures the steady-state collective hot path: per-thread
// request lists of 2^11 indices on a 2^16-element array, every call
// inside one SPMD region after a warmup round, exactly like the
// BenchmarkCollective* suite. One "op" is one collective superstep (all
// threads calling once); allocations are a whole-process Mallocs delta
// with the empty-region overhead subtracted.
func collectives(cfg Config) ([]report.BenchRecord, error) {
	c, err := pgasgraph.NewCluster(clusterConfig(cfg))
	if err != nil {
		return nil, err
	}
	rt := c.Runtime()
	s := c.Threads()
	const n = 1 << 16
	const k = 1 << 11
	d := rt.NewSharedArray("D", n)
	d.FillIdentity()
	idx := make([][]int64, s)
	roots := make([][]int64, s) // idx folded onto 64 roots: a late pointer-jumping level
	vals := make([][]int64, s)
	out := make([][]int64, s)
	for t := 0; t < s; t++ {
		rng := xrand.New(cfg.Seed + uint64(t) + 1)
		idx[t] = make([]int64, k)
		roots[t] = make([]int64, k)
		vals[t] = make([]int64, k)
		out[t] = make([]int64, k)
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
	rt.ArmCheckpoints()
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
// region (goroutine spawns, result assembly) so collectives can subtract
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
