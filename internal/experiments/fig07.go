package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/report"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// fig07 reproduces Figures 7 (m=400M) and 8 (m=1G): the fully optimized
// CC on all 16 nodes, sweeping threads per node, against the horizontal
// reference lines of CC-SMP (16 threads, one node) and the best
// sequential implementation. Paper findings: fastest at 8 threads/node
// (2.2x / 3x over SMP, ~9x / ~11x over sequential); at 16 threads/node
// the SMatrix/PMatrix all-to-all burst degrades performance ~10x.
type fig07 struct {
	Cfg     Config
	tag     string
	Title   string
	N, M    int64
	Threads []int
	NS      []float64 // optimized CC per threads-per-node entry
	SMPNS   float64
	SeqNS   float64
	Dense   bool
}

// Best returns the index of the fastest thread count.
func (f *fig07) Best() int {
	best := 0
	for i, v := range f.NS {
		if v < f.NS[best] {
			best = i
		}
	}
	return best
}

// runFig07 executes the sweep on the 400M-edge-scale random graph.
func runFig07(cfg Config) *fig07 {
	return runCCScaling(cfg, paper400M, "Figure 7: optimized CC, random n=100M m=400M scale", false)
}

// runFig08 executes the sweep on the 1G-edge-scale random graph.
func runFig08(cfg Config) *fig07 {
	return runCCScaling(cfg, paper1G, "Figure 8: optimized CC, random n=100M m=1G scale", true)
}

func runCCScaling(cfg Config, paperM int64, title string, dense bool) *fig07 {
	cfg = cfg.WithDefaults()
	g := cfg.RandomGraph(paper100M, paperM)
	tag := "fig07"
	if dense {
		tag = "fig08"
	}
	f := &fig07{
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
		// The paper simulates three recursion levels with t*t' = 16
		// virtual processors per node: t' = 16/t.
		tp := maxTPN / tpn
		if tp < 1 {
			tp = 1
		}
		opts := &cc.Options{Col: collective.Optimized(tp), Compact: true}
		res := cc.Coalesced(rt, collective.NewComm(rt), g, opts)
		f.NS = append(f.NS, res.Run.SimNS)
	}

	smpRT := cfg.Runtime(1, maxTPN)
	f.SMPNS = cc.Naive(smpRT, g).Run.SimNS

	_, f.SeqNS = seq.CCTimed(g, sim.NewModel(cfg.Machine(1, 1)))
	return f
}

// Table renders the figure's series.
func (f *fig07) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s — n=%s m=%s, %d nodes; simulated ms",
			f.Title, report.Count(f.N), report.Count(f.M), f.Cfg.Nodes),
		"threads/node", "optimized CC", "vs SMP", "vs sequential")
	for i, tpn := range f.Threads {
		t.AddRow(fmt.Sprint(tpn), report.MS(f.NS[i]),
			report.Ratio(f.SMPNS/f.NS[i]), report.Ratio(f.SeqNS/f.NS[i]))
	}
	t.AddRow("SMP (1 node x 16)", report.MS(f.SMPNS), report.Ratio(1), report.Ratio(f.SeqNS/f.SMPNS))
	t.AddRow("sequential", report.MS(f.SeqNS), "", "")
	b := f.Best()
	t.AddNote("best at %d threads/node: %s vs SMP, %s vs sequential (paper: 8 threads, %s)",
		f.Threads[b], report.Ratio(f.SMPNS/f.NS[b]), report.Ratio(f.SeqNS/f.NS[b]),
		map[bool]string{false: "2.2x and ~9x", true: "3x and ~11x"}[f.Dense])
	t.AddNote("paper: 16 threads/node degrades ~10x (SMatrix/PMatrix all-to-all burst)")
	return t
}

// CheckShape asserts the paper's qualitative findings.
func (f *fig07) CheckShape() error {
	b := f.Best()
	if f.Threads[b] != 8 {
		return fmt.Errorf("%s: best at %d threads/node, want 8", f.tag, f.Threads[b])
	}
	if f.NS[b] >= f.SMPNS {
		return fmt.Errorf("%s: best cluster time %.0f not faster than SMP %.0f", f.tag, f.NS[b], f.SMPNS)
	}
	if sp := f.SeqNS / f.NS[b]; sp < 4 {
		return fmt.Errorf("%s: speedup over sequential %.1f, want >= 4", f.tag, sp)
	}
	last := f.NS[len(f.NS)-1] // 16 threads/node
	if last < f.NS[b]*3 {
		return fmt.Errorf("%s: 16 threads/node (%.0f) should degrade >= 3x vs best (%.0f)",
			f.tag, last, f.NS[b])
	}
	// Scaling from 1 to 8 threads/node should help.
	if f.NS[0] <= f.NS[b] {
		return fmt.Errorf("%s: 1 thread/node (%.0f) not slower than best (%.0f)", f.tag, f.NS[0], f.NS[b])
	}
	return nil
}
