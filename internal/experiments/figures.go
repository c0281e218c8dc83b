package experiments

import (
	"fmt"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
)

// fig2 reproduces Figure 2: the naive CC-UPC translation on the full
// cluster versus CC-SMP on one node, over four random graphs whose vertex
// counts and densities (m/n of 4 and 20) mirror the paper's spread. The
// paper's finding: the literal translation is orders of magnitude slower —
// three orders per processor (CC-UPC uses p*t threads, CC-SMP t) —
// motivating every optimization that follows.
var fig2 = Sweep{
	Name: "fig2",
	Points: func(c Config, yield func(Point)) {
		for _, in := range []struct {
			label          string
			paperN, degree int64
		}{{"1M-d4", 1_000_000, 4}, {"1M-d20", 1_000_000, 20}, {"10M-d4", paper10M, 4}, {"10M-d20", paper10M, 20}} {
			p := c.point(in.label)
			p.Graph, p.Kernel, p.Threads = c.randomGraph(in.paperN, in.paperN*in.degree), "cc/naive", c.Base.ThreadsPerNode
			yield(p)
		}
	},
	series: []series{{name: "naive"}, smp},
	title: func(v *view) string {
		return fmt.Sprintf("Figure 2: naive CC-UPC (%d nodes) vs CC-SMP (1 node) — simulated ms", v.r.cfg.Nodes)
	},
	columns: []column{{"graph", label}, {"n", nOf}, {"m", mOf}, {"CC-UPC", ms("naive")}, {"CC-SMP", ms("smp")},
		{"slowdown", ratio("naive", "smp")},
		{"per-proc slowdown", func(v *view) string { return report.Ratio(perProcSlowdown(v)) }}},
	notes: []string{"paper: CC-UPC is ~3 orders of magnitude slower per processor"},
	claims: []claim{{name: "CC-UPC over CC-SMP", bound: 10, got: over("naive", "smp")},
		{name: "per-proc slowdown", bound: 100, got: perProcSlowdown}},
	perPoint: true,
}

func perProcSlowdown(v *view) float64 { return v.ns("naive") * float64(v.r.cfg.Nodes) / v.ns("smp") }

// fig3 reproduces Figure 3: communication coalescing alone. One thread per
// node; the rewritten CC and SV use unoptimized collectives with quicksort
// grouping (the paper stresses coalescing wins even with a sort "more than
// 50 times slower than count sort"). Findings: rewritten CC is ~70x faster
// than the naive code, and SV is slower than CC because it issues more
// collective calls per iteration.
var fig3 = Sweep{
	Name: "fig3",
	Points: func(c Config, yield func(Point)) {
		g := c.randomGraph(paper10M, 40_000_000)
		col := collective.Base()
		col.Sort = collective.QuickSort
		for _, impl := range []struct{ label, kernel string }{
			{"Orig (naive)", "cc/naive"}, {"CC (collectives)", "cc/coalesced"}, {"SV (collectives)", "cc/sv"},
		} {
			p := c.point(impl.label)
			p.Graph, p.Kernel, p.Threads, p.Col, p.Compact = g, impl.kernel, 1, col, false
			yield(p)
		}
	},
	series: []series{{name: "run"}},
	title: func(v *view) string {
		return fmt.Sprintf("Figure 3: communication coalescing (random n=%s m=%s, %d nodes x 1 thread)", nOf(v), mOf(v), v.r.cfg.Nodes)
	},
	columns: []column{{"implementation", label}, {"sim ms", ms("run")}, {"iterations", iterations("run")},
		{"vs Orig", func(v *view) string { return report.Ratio(v.at(0).ns("run") / v.ns("run")) }}},
	notes: []string{"paper: rewritten CC ~70x faster than Orig; SV slower than CC (more collectives per iteration)"},
	claims: []claim{
		{name: "Orig over CC", bound: 10, got: func(v *view) float64 { return v.ns("run") / v.at(1).ns("run") }},
		{name: "SV over CC", bound: 1, strict: true, got: func(v *view) float64 { return v.at(2).ns("run") / v.at(1).ns("run") }},
		{name: "Orig over SV", bound: 2, got: func(v *view) float64 { return v.ns("run") / v.at(2).ns("run") }}},
}

// tPrimes is Figure 4's virtual-thread axis.
var tPrimes = []int{1, 2, 4, 8, 12, 16, 18, 24, 32, 48, 64}

// fig4 reproduces Figure 4: cache blocking on a single SMP node. CC
// rewritten with (shared-memory) collectives runs with t' virtual threads
// per physical thread; the paper sweeps t' on three inputs and finds a
// U-shape with the best t' between 12 and 18, where the blocked code is up
// to ~2x faster than the prior SMP implementation.
var fig4 = Sweep{
	Name: "fig4",
	Points: func(c Config, yield func(Point)) {
		for _, in := range []struct {
			label          string
			paperN, paperM int64
		}{{"n=100M m=400M", paper100M, paper400M}, {"n=100M m=1G", paper100M, paper1G}, {"n=200M m=800M", 200_000_000, 800_000_000}} {
			p := c.point(in.label)
			p.Graph, p.Kernel = c.randomGraph(in.paperN, in.paperM), "cc/coalesced"
			yield(p)
		}
	},
	series: []series{smp, {name: "best", steps: tPrimes, step: func(p *Point, t int) {
		p.Nodes, p.Threads, p.Col = 1, p.Base.ThreadsPerNode, collective.Optimized(t)
	}}},
	title: func(*view) string {
		return "Figure 4: CC vs virtual-thread count t' (single SMP node) — simulated ms"
	},
	columns: func() []column {
		cols := []column{{"input", label}, {"n", nOf}, {"m", mOf}, {"SMP", ms("smp")}}
		for j, t := range tPrimes {
			cols = append(cols, column{fmt.Sprintf("t'=%d", t), func(v *view) string { return report.MS(v.get("best").Steps[j].NS) }})
		}
		return append(cols, column{"best t'", func(v *view) string { return fmt.Sprint(tPrimes[v.get("best").Best]) }},
			column{"best vs SMP", ratio("smp", "best")})
	}(),
	notes: []string{"paper: U-shape; best t' in [12,18]; best ~2x faster than the SMP implementation"},
	// The unblocked endpoints must be visibly worse than the best, which
	// puts the minimum inside the sweep.
	claims: []claim{{name: "SMP over best", bound: 1, strict: true, got: over("smp", "best")},
		{name: "t'=1 over best", bound: 1.05, got: func(v *view) float64 { return v.get("best").Steps[0].NS / v.ns("best") }},
		{name: "largest t' over best", bound: 1.01, got: func(v *view) float64 { m := v.get("best"); return m.Steps[len(m.Steps)-1].NS / m.NS }}},
	perPoint: true,
}

// Figures 5 and 6: the cumulative impact of the §V optimizations on CC,
// time broken into the paper's six categories, on the 100M/400M random
// graph and the same-size hybrid one. The paper's observation on the
// hybrid: the scale-free hubs create neither load imbalance (edges, not
// vertices, are partitioned) nor hotspots (one message per thread pair),
// so the picture matches the random graph's.
var (
	fig5 = ablation("fig5", "Figure 5: optimization impact on CC (random graph)", func(c Config) *graph.Graph {
		return c.randomGraph(paper100M, paper400M)
	})
	fig6 = ablation("fig6", "Figure 6: optimization impact on CC (hybrid graph)", func(c Config) *graph.Graph {
		return graph.Hybrid(c.n(paper100M), c.n(paper400M), c.Seed)
	})
)

// ablation is the optimization ladder on input's graph: base → +compact →
// +offload → +circular → +localcpy → +id, each rung adding one.
func ablation(name, title string, input func(Config) *graph.Graph) Sweep {
	cols := []column{{"configuration", label}, {"total", ms("cc")}}
	for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
		cols = append(cols, column{cat.String(), func(v *view) string { return report.MS(avg(v, "cc", cat)) }})
	}
	return Sweep{
		Name: name,
		Points: func(c Config, yield func(Point)) {
			g := input(c)
			for k, rung := range []string{"base", "+compact", "+offload", "+circular", "+localcpy", "+id"} {
				p := c.point(rung)
				p.Graph, p.Kernel, p.Compact = g, "cc/coalesced", k >= 1
				p.Col = &collective.Options{VirtualThreads: 1, Offload: k >= 2, Circular: k >= 3, LocalCpy: k >= 4, CachedIDs: k >= 5}
				yield(p)
			}
		},
		series: []series{{name: "cc"}},
		title: func(v *view) string {
			return fmt.Sprintf("%s — n=%s m=%s, %d nodes x 8 threads, per-thread avg ms by category", title, nOf(v), mOf(v), v.r.cfg.Nodes)
		},
		columns: cols,
		notes:   []string{"paper: compact improves nearly all categories; circular halves comm; localcpy halves copy; id cuts work"},
		// Cumulative optimizations never hurt the total materially; each
		// rung's effect: compact the total, circular comm (paper: ~2x),
		// localcpy copy (paper: ~2x), id local work.
		claims: []claim{
			{name: "each bar's previous total over its own", bound: 1 / 1.10, got: func(v *view) float64 {
				return least(1, len(v.r.Points), func(i int) float64 { return v.at(i-1).ns("cc") / v.at(i).ns("cc") })
			}},
			{name: "base over +compact total", bound: 1, strict: true, got: func(v *view) float64 { return v.ns("cc") / v.of("+compact").ns("cc") }},
			{name: "+offload over +circular comm", bound: 1.5, got: cut("+offload", "+circular", sim.CatComm)},
			{name: "+circular over +localcpy copy", bound: 1.3, got: cut("+circular", "+localcpy", sim.CatCopy)},
			{name: "+localcpy over +id work", bound: 1, strict: true, got: cut("+localcpy", "+id", sim.CatWork)}},
	}
}

// cut is the per-thread average time in cat at rung from over that at
// rung to: how far to cut it.
func cut(from, to string, cat sim.Category) func(*view) float64 {
	return func(v *view) float64 { return avg(v.of(from), "cc", cat) / avg(v.of(to), "cc", cat) }
}

// avg is the per-thread average time the named series spent in cat.
func avg(v *view, name string, cat sim.Category) float64 {
	return v.get(name).Run.AvgByCategory()[cat]
}

// Figures 7-10 are one sweep on two kernels: the fully optimized kernel on
// all 16 nodes, sweeping threads per node, against the horizontal lines of
// its SMP implementation (16 threads, one node) and the best sequential
// one. Paper findings, CC (Figures 7, m=400M, and 8, m=1G): fastest at 8
// threads/node (2.2x / 3x over SMP, ~9x / ~11x over sequential); at 16
// threads/node the SMatrix/PMatrix all-to-all burst degrades performance
// ~10x. MST (Figures 9 and 10): best speedups 5.5x / 10.2x at 8 threads per
// node; at these input sizes MST-SMP (fine-grained locks) is barely faster,
// or slower, than Kruskal with cache-friendly merge sort, because of the
// overhead of 100M locks.
var (
	fig7  = threadSweep(sweepCC, "fig7", paper400M, "Figure 7: optimized CC, random n=100M m=400M scale", "2.2x and ~9x")
	fig8  = threadSweep(sweepCC, "fig8", paper1G, "Figure 8: optimized CC, random n=100M m=1G scale", "3x and ~11x")
	fig9  = threadSweep(sweepMST, "fig9", paper400M, "Figure 9: optimized MST, random n=100M m=400M scale", "5.5x")
	fig10 = threadSweep(sweepMST, "fig10", paper1G, "Figure 10: optimized MST, random n=100M m=1G scale", "10.2x")
)

// sweepKernel is what differs between the CC and the MST sweep, as data:
// the table's labels and notes (bestNote formats the best threads/node, vs
// SMP, vs sequential, and the paper's figures), and the shape thresholds.
// The best point beats SMP by minVsSMP and sequential by minVsSeq, 16
// threads/node degrades by cliff against it, and sequential/SMP lies in
// [seqOverSMP, 1/smpOverSeq] (MST only, where locking costs eat the
// parallelism at these sizes). A zero bound always holds: CC's band,
// MST's minVsSeq.
type sweepKernel struct {
	kernel, column, vsSeq, smpRow, seqRow, bestNote string
	notes                                           []string
	minVsSMP, minVsSeq, cliff                       float64
	seqOverSMP, smpOverSeq                          float64
}

var (
	sweepCC = &sweepKernel{
		kernel: "cc/coalesced",
		column: "optimized CC", vsSeq: "vs sequential", smpRow: "SMP (1 node x 16)", seqRow: "sequential",
		bestNote: "best at %[1]s threads/node: %[2]s vs SMP, %[3]s vs sequential (paper: 8 threads, %[4]s)",
		notes:    []string{"paper: 16 threads/node degrades ~10x (SMatrix/PMatrix all-to-all burst)"},
		minVsSMP: 1, minVsSeq: 4, cliff: 3,
	}
	sweepMST = &sweepKernel{
		kernel: "mst/coalesced",
		column: "optimized MST", vsSeq: "vs Kruskal", smpRow: "MST-SMP (1 node x 16)", seqRow: "Kruskal (sequential)",
		bestNote: "best at %[1]s threads/node: %[2]s vs SMP (paper: 8 threads, %[4]s); SMP ~ Kruskal at this size (locking overhead)",
		minVsSMP: 3, cliff: 2, seqOverSMP: 0.2, smpOverSeq: 1.0 / 3,
	}
)

// threadCounts is the threads-per-node axis of Figures 7-10.
var threadCounts = []int{1, 2, 4, 8, 16}

// threadSweep is k's sweep on the scaled random graph of paperM edges.
func threadSweep(k *sweepKernel, name string, paperM int64, title, paper string) Sweep {
	return Sweep{
		Name: name,
		Points: func(c Config, yield func(Point)) {
			g := c.randomGraph(paper100M, paperM)
			if serve.Weighted(k.kernel) {
				g = graph.WithRandomWeights(g, c.Seed+1)
			}
			for _, t := range threadCounts {
				p := c.point(fmt.Sprint(t))
				p.Graph, p.Kernel = g, k.kernel
				threadsPerNode(&p, t)
				yield(p)
			}
		},
		series: []series{{name: "opt"},
			line(smp, k.smpRow, ratio("smp", "smp"), ratio("seq", "smp")), line(sequential, k.seqRow)},
		title: func(v *view) string {
			return fmt.Sprintf("%s — n=%s m=%s, %d nodes; simulated ms", title, nOf(v), mOf(v), v.r.cfg.Nodes)
		},
		columns: []column{{"threads/node", label}, {k.column, ms("opt")}, {"vs SMP", ratio("smp", "opt")}, {k.vsSeq, ratio("seq", "opt")}},
		note: func(v *view) string {
			b := v.best("opt")
			return fmt.Sprintf(k.bestNote, b.p().Label, ratio("smp", "opt")(b), ratio("seq", "opt")(b), paper)
		},
		notes: k.notes,
		// Best at 8 already says that scaling from 1 to 8 threads/node
		// helped; from there on the point at 8 is the best.
		claims: []claim{
			{name: "fewer threads/node over 8", bound: 1, strict: true, got: func(v *view) float64 { return overEight(true, v.along("opt")) }},
			{name: "more threads/node over 8", bound: 1, got: func(v *view) float64 { return overEight(false, v.along("opt")) }},
			{name: "SMP over best", bound: k.minVsSMP, got: func(v *view) float64 { return v.ns("smp") / v.of("8").ns("opt") }},
			{name: "sequential over best", bound: k.minVsSeq, got: func(v *view) float64 { return v.ns("seq") / v.of("8").ns("opt") }},
			{name: "sequential over SMP", bound: k.seqOverSMP, got: over("seq", "smp")},
			{name: "SMP over sequential", bound: k.smpOverSeq, got: over("smp", "seq")},
			{name: "16 threads/node over best", bound: k.cliff, got: func(v *view) float64 { return last(v).ns("opt") / v.of("8").ns("opt") }}},
	}
}

// overEight is the least time over the time at 8 threads/node among the
// thread counts below 8, or above it, ns(j) reading the time at
// threadCounts[j].
func overEight(below bool, ns func(j int) float64) float64 {
	i8 := slices.Index(threadCounts, 8)
	lo, hi := i8+1, len(threadCounts)
	if below {
		lo, hi = 0, i8
	}
	return least(lo, hi, func(j int) float64 { return ns(j) / ns(i8) })
}
