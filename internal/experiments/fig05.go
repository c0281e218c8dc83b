package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
	"pgasgraph/internal/sim"
)

// Fig05 reproduces Figure 5 (random graph) and, via RunFig06, Figure 6
// (hybrid graph): the cumulative impact of the §V optimizations on CC,
// with execution time broken into the paper's six categories. The input
// is the 100M/400M graph with 8 threads per node; bars accumulate
// base → +compact → +offload → +circular → +localcpy → +id.
type Fig05 struct {
	Cfg    Config
	Title  string
	N, M   int64
	Bars   []Fig05Bar
	Hybrid bool
}

// Fig05Bar is one cumulative-optimization configuration.
type Fig05Bar struct {
	Name      string
	TotalNS   float64
	Breakdown sim.Breakdown // per-thread average
}

// ladder returns the cumulative optimization configurations of the figure.
func ladder(tprime int) []struct {
	name string
	opts *cc.Options
} {
	mk := func(compact, offload, circular, localcpy, id bool) *cc.Options {
		return &cc.Options{
			Compact: compact,
			Col: &collective.Options{
				VirtualThreads: tprime,
				Offload:        offload,
				Circular:       circular,
				LocalCpy:       localcpy,
				CachedIDs:      id,
			},
		}
	}
	return []struct {
		name string
		opts *cc.Options
	}{
		{"base", mk(false, false, false, false, false)},
		{"+compact", mk(true, false, false, false, false)},
		{"+offload", mk(true, true, false, false, false)},
		{"+circular", mk(true, true, true, false, false)},
		{"+localcpy", mk(true, true, true, true, false)},
		{"+id", mk(true, true, true, true, true)},
	}
}

// runFig05 executes the ablation on the random graph.
func runFig05(cfg Config) *Fig05 {
	cfg = cfg.WithDefaults()
	g := cfg.RandomGraph(paper100M, paper400M)
	return runAblation(cfg, g, "Figure 5: optimization impact on CC (random graph)", false)
}

// RunFig06 executes the ablation on the hybrid graph (Figure 6). The
// paper's observation: the scale-free hubs create neither load imbalance
// (edges, not vertices, are partitioned) nor hotspots (one message per
// thread pair), so the picture matches the random graph's.
func RunFig06(cfg Config) *Fig05 {
	cfg = cfg.WithDefaults()
	g := cfg.HybridGraph(paper100M, paper400M)
	f := runAblation(cfg, g, "Figure 6: optimization impact on CC (hybrid graph)", true)
	return f
}

func runAblation(cfg Config, g *graph.Graph, title string, hybrid bool) *Fig05 {
	f := &Fig05{Cfg: cfg, Title: title, N: g.N, M: g.M(), Hybrid: hybrid}
	// Figure 5 uses 8 threads per node.
	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}
	for _, step := range ladder(1) {
		rt := cfg.Runtime(cfg.Nodes, tpn)
		res := cc.Coalesced(rt, collective.NewComm(rt), g, step.opts)
		f.Bars = append(f.Bars, Fig05Bar{
			Name:      step.name,
			TotalNS:   res.Run.SimNS,
			Breakdown: res.Run.AvgByCategory(),
		})
	}
	return f
}

// Table renders the stacked-bar data.
func (f *Fig05) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s — n=%s m=%s, %d nodes x 8 threads, per-thread avg ms by category",
			f.Title, report.Count(f.N), report.Count(f.M), f.Cfg.Nodes),
		"configuration", "total", "comm", "sort", "copy", "irregular", "setup", "work", "wait")
	for _, b := range f.Bars {
		t.AddRow(b.Name,
			report.MS(b.TotalNS),
			report.MS(b.Breakdown[sim.CatComm]),
			report.MS(b.Breakdown[sim.CatSort]),
			report.MS(b.Breakdown[sim.CatCopy]),
			report.MS(b.Breakdown[sim.CatIrregular]),
			report.MS(b.Breakdown[sim.CatSetup]),
			report.MS(b.Breakdown[sim.CatWork]),
			report.MS(b.Breakdown[sim.CatWait]))
	}
	t.AddNote("paper: compact improves nearly all categories; circular halves comm; localcpy halves copy; id cuts work")
	return t
}

// bar returns the named bar.
func (f *Fig05) bar(name string) *Fig05Bar {
	for i := range f.Bars {
		if f.Bars[i].Name == name {
			return &f.Bars[i]
		}
	}
	return nil
}

// CheckShape asserts the per-optimization effects the paper reports.
func (f *Fig05) CheckShape() error {
	if len(f.Bars) != 6 {
		return fmt.Errorf("fig05: %d bars, want 6", len(f.Bars))
	}
	// Cumulative optimizations never hurt the total materially.
	for i := 1; i < len(f.Bars); i++ {
		if f.Bars[i].TotalNS > f.Bars[i-1].TotalNS*1.10 {
			return fmt.Errorf("fig05: bar %q total %.0f regressed vs %q %.0f",
				f.Bars[i].Name, f.Bars[i].TotalNS, f.Bars[i-1].Name, f.Bars[i-1].TotalNS)
		}
	}
	// compact reduces the total.
	if f.bar("+compact").TotalNS >= f.bar("base").TotalNS {
		return fmt.Errorf("fig05: compact did not reduce total")
	}
	// circular reduces communication sharply (paper: ~2x).
	pre, post := f.bar("+offload"), f.bar("+circular")
	if ratio := pre.Breakdown[sim.CatComm] / post.Breakdown[sim.CatComm]; ratio < 1.5 {
		return fmt.Errorf("fig05: circular reduced comm only %.2fx, want >= 1.5x", ratio)
	}
	// localcpy reduces the copy category (paper: ~2x).
	pre, post = f.bar("+circular"), f.bar("+localcpy")
	if ratio := pre.Breakdown[sim.CatCopy] / post.Breakdown[sim.CatCopy]; ratio < 1.3 {
		return fmt.Errorf("fig05: localcpy reduced copy only %.2fx, want >= 1.3x", ratio)
	}
	// id reduces local work.
	pre, post = f.bar("+localcpy"), f.bar("+id")
	if pre.Breakdown[sim.CatWork] <= post.Breakdown[sim.CatWork] {
		return fmt.Errorf("fig05: id did not reduce work (%.0f -> %.0f)",
			pre.Breakdown[sim.CatWork], post.Breakdown[sim.CatWork])
	}
	return nil
}
