package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/report"
)

// fig03 reproduces Figure 3: the impact of communication coalescing alone.
// Input is a random graph (paper: 10M vertices, 40M edges) with one thread
// per node; the rewritten CC and SV use *unoptimized* collectives with
// quicksort grouping (the paper stresses coalescing wins even with a sort
// "more than 50 times slower than count sort"). Findings: rewritten CC is
// ~70x faster than the naive code, and SV is slower than CC because it
// issues more collective calls per iteration.
type fig03 struct {
	Cfg                    Config
	N, M                   int64
	OrigNS, CCNS, SVNS     float64
	OrigIt, CCIt, SVIt     int
	CCMessages, SVMessages int64
}

// runFig03 executes the experiment.
func runFig03(cfg Config) *fig03 {
	cfg = cfg.WithDefaults()
	g := cfg.RandomGraph(paper10M, paper40M)
	f := &fig03{Cfg: cfg, N: g.N, M: g.M()}

	// One thread per node, as in the paper's Figure 3.
	col := collective.Base()
	col.Sort = collective.QuickSort
	opts := &cc.Options{Col: col}

	rtOrig := cfg.Runtime(cfg.Nodes, 1)
	orig := cc.Naive(rtOrig, g)
	f.OrigNS, f.OrigIt = orig.Run.SimNS, orig.Iterations

	rtCC := cfg.Runtime(cfg.Nodes, 1)
	res := cc.Coalesced(rtCC, collective.NewComm(rtCC), g, opts)
	f.CCNS, f.CCIt, f.CCMessages = res.Run.SimNS, res.Iterations, res.Run.Messages

	rtSV := cfg.Runtime(cfg.Nodes, 1)
	sv := cc.SV(rtSV, collective.NewComm(rtSV), g, opts)
	f.SVNS, f.SVIt, f.SVMessages = sv.Run.SimNS, sv.Iterations, sv.Run.Messages

	return f
}

// Table renders the figure's series.
func (f *fig03) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 3: communication coalescing (random n=%s m=%s, %d nodes x 1 thread)",
			report.Count(f.N), report.Count(f.M), f.Cfg.Nodes),
		"implementation", "sim ms", "iterations", "vs Orig")
	t.AddRow("Orig (naive)", report.MS(f.OrigNS), fmt.Sprint(f.OrigIt), report.Ratio(1))
	t.AddRow("CC (collectives)", report.MS(f.CCNS), fmt.Sprint(f.CCIt), report.Ratio(f.OrigNS/f.CCNS))
	t.AddRow("SV (collectives)", report.MS(f.SVNS), fmt.Sprint(f.SVIt), report.Ratio(f.OrigNS/f.SVNS))
	t.AddNote("paper: rewritten CC ~70x faster than Orig; SV slower than CC (more collectives per iteration)")
	return t
}

// CheckShape asserts coalescing's dominance and the CC-vs-SV ordering.
func (f *fig03) CheckShape() error {
	if f.OrigNS/f.CCNS < 10 {
		return fmt.Errorf("fig03: CC speedup over naive %.1f, want >= 10", f.OrigNS/f.CCNS)
	}
	if f.SVNS <= f.CCNS {
		return fmt.Errorf("fig03: SV (%.0f) should be slower than CC (%.0f)", f.SVNS, f.CCNS)
	}
	if f.OrigNS/f.SVNS < 2 {
		return fmt.Errorf("fig03: SV should still beat naive (speedup %.2f)", f.OrigNS/f.SVNS)
	}
	return nil
}
