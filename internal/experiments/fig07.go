package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
)

// threadSweep reproduces Figures 7-10, which are one sweep on two kernels:
// the fully optimized kernel on all 16 nodes, sweeping threads per node,
// against the horizontal reference lines of its SMP implementation (16
// threads, one node) and the best sequential one. Paper findings, CC
// (Figures 7, m=400M, and 8, m=1G): fastest at 8 threads/node (2.2x / 3x
// over SMP, ~9x / ~11x over sequential); at 16 threads/node the
// SMatrix/PMatrix all-to-all burst degrades performance ~10x. MST (Figures
// 9 and 10): best speedups 5.5x / 10.2x at 8 threads per node; at these
// input sizes MST-SMP (fine-grained locks) is barely faster, or slower,
// than Kruskal with cache-friendly merge sort, because of the overhead of
// 100M locks.
type threadSweep struct {
	Cfg        Config
	kernel     *sweepKernel
	tag, title string
	paper      string // the paper's best-point speedups, for the table note
	N, M       int64
	Threads    []int
	NS         []float64 // the optimized kernel per threads-per-node entry
	SMPNS      float64
	SeqNS      float64
}

// sweepKernel is what differs between the CC and the MST sweep, as data.
type sweepKernel struct {
	kernel, smp string // registry rows: the swept kernel, the one-node SMP line
	seq         func(*graph.Graph, *sim.Model) float64
	// Column and row labels of the table, and its notes: bestNote formats
	// (best threads/node, vs SMP, vs sequential, the paper's figures).
	column, vsSeq, smpRow, seqRow string
	bestNote, cliffNote           string
	// Shape thresholds: the best point beats SMP by minVsSMP and sequential
	// by minVsSeq, 16 threads/node degrades by cliff against the best, and
	// sequential/SMP lies in seqOverSMP (unchecked when zero: MST only,
	// where locking costs eat the parallelism at these sizes).
	minVsSMP, minVsSeq, cliff float64
	seqOverSMP                [2]float64
}

var (
	sweepCC = &sweepKernel{
		kernel: "cc/coalesced", smp: "cc/naive",
		seq:    func(g *graph.Graph, m *sim.Model) float64 { _, ns := seq.CCTimed(g, m); return ns },
		column: "optimized CC", vsSeq: "vs sequential", smpRow: "SMP (1 node x 16)", seqRow: "sequential",
		bestNote:  "best at %[1]d threads/node: %[2]s vs SMP, %[3]s vs sequential (paper: 8 threads, %[4]s)",
		cliffNote: "paper: 16 threads/node degrades ~10x (SMatrix/PMatrix all-to-all burst)",
		minVsSMP:  1, minVsSeq: 4, cliff: 3,
	}
	sweepMST = &sweepKernel{
		kernel: "mst/coalesced", smp: "mst/naive",
		seq:    func(g *graph.Graph, m *sim.Model) float64 { _, ns := seq.KruskalTimed(g, m); return ns },
		column: "optimized MST", vsSeq: "vs Kruskal", smpRow: "MST-SMP (1 node x 16)", seqRow: "Kruskal (sequential)",
		bestNote: "best at %[1]d threads/node: %[2]s vs SMP (paper: 8 threads, %[4]s); SMP ~ Kruskal at this size (locking overhead)",
		minVsSMP: 3, cliff: 2, seqOverSMP: [2]float64{0.2, 3},
	}
)

func runFig07(cfg Config) *threadSweep {
	return runThreadSweep(cfg, sweepCC, paper400M, "fig07", "Figure 7: optimized CC, random n=100M m=400M scale", "2.2x and ~9x")
}
func runFig08(cfg Config) *threadSweep {
	return runThreadSweep(cfg, sweepCC, paper1G, "fig08", "Figure 8: optimized CC, random n=100M m=1G scale", "3x and ~11x")
}
func runFig09(cfg Config) *threadSweep {
	return runThreadSweep(cfg, sweepMST, paper400M, "fig09", "Figure 9: optimized MST, random n=100M m=400M scale", "5.5x")
}
func runFig10(cfg Config) *threadSweep {
	return runThreadSweep(cfg, sweepMST, paper1G, "fig10", "Figure 10: optimized MST, random n=100M m=1G scale", "10.2x")
}

// Best returns the index of the fastest thread count.
func (f *threadSweep) Best() int {
	best := 0
	for i, v := range f.NS {
		if v < f.NS[best] {
			best = i
		}
	}
	return best
}

// runThreadSweep executes k's sweep on the scaled random graph of paperM
// edges, as the figure tagged tag.
func runThreadSweep(cfg Config, k *sweepKernel, paperM int64, tag, title, paper string) *threadSweep {
	cfg = cfg.WithDefaults()
	g := cfg.RandomGraph(paper100M, paperM)
	if serve.Weighted(k.kernel) {
		g = graph.WithRandomWeights(g, cfg.Seed+1)
	}
	f := &threadSweep{Cfg: cfg, kernel: k, tag: tag, title: title, paper: paper,
		N: g.N, M: g.M(), Threads: []int{1, 2, 4, 8, 16}}
	maxTPN := cfg.Base.ThreadsPerNode
	for _, tpn := range f.Threads {
		tpn = min(tpn, maxTPN)
		// The paper simulates three recursion levels with t*t' = 16
		// virtual processors per node: t' = 16/t.
		spec := serve.KernelSpec{Kernel: k.kernel, Graph: g, Col: collective.Optimized(max(maxTPN/tpn, 1)), Compact: true}
		f.NS = append(f.NS, cfg.run(cfg.Nodes, tpn, spec).Run.SimNS)
	}
	f.SMPNS = cfg.run(1, maxTPN, serve.KernelSpec{Kernel: k.smp, Graph: g}).Run.SimNS
	f.SeqNS = k.seq(g, sim.NewModel(cfg.Machine(1, 1)))
	return f
}

// Table renders the figure's series.
func (f *threadSweep) Table() *report.Table {
	k := f.kernel
	t := report.NewTable(
		fmt.Sprintf("%s — n=%s m=%s, %d nodes; simulated ms",
			f.title, report.Count(f.N), report.Count(f.M), f.Cfg.Nodes),
		"threads/node", k.column, "vs SMP", k.vsSeq)
	for i, tpn := range f.Threads {
		t.AddRow(fmt.Sprint(tpn), report.MS(f.NS[i]),
			report.Ratio(f.SMPNS/f.NS[i]), report.Ratio(f.SeqNS/f.NS[i]))
	}
	t.AddRow(k.smpRow, report.MS(f.SMPNS), report.Ratio(1), report.Ratio(f.SeqNS/f.SMPNS))
	t.AddRow(k.seqRow, report.MS(f.SeqNS), "", "")
	b := f.Best()
	t.AddNote(k.bestNote, f.Threads[b], report.Ratio(f.SMPNS/f.NS[b]), report.Ratio(f.SeqNS/f.NS[b]), f.paper)
	if k.cliffNote != "" {
		t.AddNote(k.cliffNote)
	}
	return t
}

// CheckShape asserts the paper's qualitative findings. (Best at 8 already
// says that scaling from 1 to 8 threads/node helped.)
func (f *threadSweep) CheckShape() error {
	k, tag, b := f.kernel, f.tag, f.Best()
	if f.Threads[b] != 8 {
		return fmt.Errorf("%s: best at %d threads/node, want 8", tag, f.Threads[b])
	}
	if sp := f.SMPNS / f.NS[b]; sp < k.minVsSMP {
		return fmt.Errorf("%s: speedup over SMP %.1f, want >= %g", tag, sp, k.minVsSMP)
	}
	if sp := f.SeqNS / f.NS[b]; sp < k.minVsSeq {
		return fmt.Errorf("%s: speedup over sequential %.1f, want >= %g", tag, sp, k.minVsSeq)
	}
	if r, band := f.SeqNS/f.SMPNS, k.seqOverSMP; band[1] > 0 && (r < band[0] || r > band[1]) {
		return fmt.Errorf("%s: SMP/sequential relation off: sequential/SMP = %.2f, want in %v", tag, r, band)
	}
	if last := f.NS[len(f.NS)-1]; last < f.NS[b]*k.cliff { // 16 threads/node
		return fmt.Errorf("%s: 16 threads/node (%.0f) should degrade >= %gx vs best (%.0f)", tag, last, k.cliff, f.NS[b])
	}
	return nil
}
