package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/report"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// fig09 reproduces Figures 9 (m=400M) and 10 (m=1G): the optimized MST on
// all 16 nodes, sweeping threads per node, against MST-SMP (one node, 16
// threads, fine-grained locks) and sequential Kruskal with cache-friendly
// merge sort. Paper findings: best speedups 5.5x / 10.2x at 8 threads per
// node; at these input sizes MST-SMP is barely faster (or slower) than
// Kruskal because of the overhead of 100M locks.
type fig09 struct {
	Cfg       Config
	tag       string
	Title     string
	N, M      int64
	Threads   []int
	NS        []float64
	SMPNS     float64
	KruskalNS float64
	Dense     bool
}

// Best returns the index of the fastest thread count.
func (f *fig09) Best() int {
	best := 0
	for i, v := range f.NS {
		if v < f.NS[best] {
			best = i
		}
	}
	return best
}

// runFig09 executes the sweep on the 400M-edge-scale weighted graph.
func runFig09(cfg Config) *fig09 {
	return runMSTScaling(cfg, paper400M, "Figure 9: optimized MST, random n=100M m=400M scale", false)
}

// runFig10 executes the sweep on the 1G-edge-scale weighted graph.
func runFig10(cfg Config) *fig09 {
	return runMSTScaling(cfg, paper1G, "Figure 10: optimized MST, random n=100M m=1G scale", true)
}

func runMSTScaling(cfg Config, paperM int64, title string, dense bool) *fig09 {
	cfg = cfg.WithDefaults()
	g := graph.WithRandomWeights(cfg.RandomGraph(paper100M, paperM), cfg.Seed+1)
	tag := "fig09"
	if dense {
		tag = "fig10"
	}
	f := &fig09{
		Cfg:     cfg,
		tag:     tag,
		Title:   title,
		N:       g.N,
		M:       g.M(),
		Threads: []int{1, 2, 4, 8, 16},
		Dense:   dense,
	}
	maxTPN := cfg.Base.ThreadsPerNode
	for _, tpn := range f.Threads {
		if tpn > maxTPN {
			tpn = maxTPN
		}
		rt := cfg.Runtime(cfg.Nodes, tpn)
		tp := maxTPN / tpn
		if tp < 1 {
			tp = 1
		}
		opts := &mst.Options{Col: collective.Optimized(tp), Compact: true}
		res := mst.Coalesced(rt, collective.NewComm(rt), g, opts)
		f.NS = append(f.NS, res.Run.SimNS)
	}

	smpRT := cfg.Runtime(1, maxTPN)
	f.SMPNS = mst.Naive(smpRT, g).Run.SimNS

	_, f.KruskalNS = seq.KruskalTimed(g, sim.NewModel(cfg.Machine(1, 1)))
	return f
}

// Table renders the figure's series.
func (f *fig09) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s — n=%s m=%s, %d nodes; simulated ms",
			f.Title, report.Count(f.N), report.Count(f.M), f.Cfg.Nodes),
		"threads/node", "optimized MST", "vs SMP", "vs Kruskal")
	for i, tpn := range f.Threads {
		t.AddRow(fmt.Sprint(tpn), report.MS(f.NS[i]),
			report.Ratio(f.SMPNS/f.NS[i]), report.Ratio(f.KruskalNS/f.NS[i]))
	}
	t.AddRow("MST-SMP (1 node x 16)", report.MS(f.SMPNS), report.Ratio(1), report.Ratio(f.KruskalNS/f.SMPNS))
	t.AddRow("Kruskal (sequential)", report.MS(f.KruskalNS), "", "")
	b := f.Best()
	t.AddNote("best at %d threads/node: %s vs SMP (paper: 8 threads, %s); SMP ~ Kruskal at this size (locking overhead)",
		f.Threads[b], report.Ratio(f.SMPNS/f.NS[b]),
		map[bool]string{false: "5.5x", true: "10.2x"}[f.Dense])
	return t
}

// CheckShape asserts the paper's qualitative findings.
func (f *fig09) CheckShape() error {
	b := f.Best()
	if f.Threads[b] != 8 {
		return fmt.Errorf("%s: best at %d threads/node, want 8", f.tag, f.Threads[b])
	}
	if sp := f.SMPNS / f.NS[b]; sp < 3 {
		return fmt.Errorf("%s: speedup over SMP %.1f, want >= 3", f.tag, sp)
	}
	// MST-SMP should be within a small factor of Kruskal (locking costs
	// eat the parallelism at these sizes).
	if ratio := f.KruskalNS / f.SMPNS; ratio > 3 || ratio < 0.2 {
		return fmt.Errorf("%s: SMP/Kruskal relation off: Kruskal/SMP = %.2f, want in [0.2, 3]", f.tag, ratio)
	}
	last := f.NS[len(f.NS)-1]
	if last < f.NS[b]*2 {
		return fmt.Errorf("%s: 16 threads/node (%.0f) should degrade >= 2x vs best (%.0f)",
			f.tag, last, f.NS[b])
	}
	return nil
}
