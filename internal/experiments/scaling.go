package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
)

// expScaling holds the two classic cluster-scaling studies the paper's
// future work points at ("we plan to study the performance of these
// algorithms on machines with a very large number of processors"):
//
//   - strong scaling: fixed input, node count swept — how far does adding
//     nodes cut the time of one problem;
//   - weak scaling: input grows with the node count — does per-node
//     efficiency survive as the machine grows.
type expScaling struct {
	Cfg  Config
	Rows []expScalingRow
}

// expScalingRow is one node count's measurements.
type expScalingRow struct {
	Nodes    int
	StrongNS float64 // fixed input
	WeakNS   float64 // input proportional to nodes
	WeakN    int64
}

// runScaling executes both sweeps with the optimized CC kernel at 8
// threads per node.
func runScaling(cfg Config) *expScaling {
	cfg = cfg.WithDefaults()
	e := &expScaling{Cfg: cfg}
	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}
	opts := &cc.Options{Col: collective.Optimized(2), Compact: true}

	fixedN := cfg.N(paper10M)
	fixed := graph.Random(fixedN, 4*fixedN, cfg.Seed)
	perNodeN := fixedN / 4

	for _, p := range []int{1, 2, 4, 8, 16} {
		rtS := cfg.Runtime(p, tpn)
		strong := cc.Coalesced(rtS, collective.NewComm(rtS), fixed, opts)

		weakN := perNodeN * int64(p)
		weak := graph.Random(weakN, 4*weakN, cfg.Seed+uint64(p))
		rtW := cfg.Runtime(p, tpn)
		weakRes := cc.Coalesced(rtW, collective.NewComm(rtW), weak, opts)

		e.Rows = append(e.Rows, expScalingRow{
			Nodes:    p,
			StrongNS: strong.Run.SimNS,
			WeakNS:   weakRes.Run.SimNS,
			WeakN:    weakN,
		})
	}
	return e
}

// Table renders both studies.
func (e *expScaling) Table() *report.Table {
	base := e.Rows[0]
	t := report.NewTable(
		fmt.Sprintf("Strong & weak scaling of optimized CC — 8 threads/node; simulated ms (strong input n=%s)",
			report.Count(e.Cfg.N(paper10M))),
		"nodes", "strong", "strong speedup", "strong efficiency", "weak n", "weak", "weak efficiency")
	for _, r := range e.Rows {
		speedup := base.StrongNS / r.StrongNS
		t.AddRow(fmt.Sprint(r.Nodes),
			report.MS(r.StrongNS),
			report.Ratio(speedup),
			fmt.Sprintf("%.0f%%", 100*speedup/float64(r.Nodes)),
			report.Count(r.WeakN),
			report.MS(r.WeakNS),
			fmt.Sprintf("%.0f%%", 100*base.WeakNS/r.WeakNS))
	}
	t.AddNote("strong: fixed problem, more nodes; weak: problem grows with the machine")
	return t
}

// CheckShape asserts that scaling behaves like a working distributed code.
func (e *expScaling) CheckShape() error {
	if len(e.Rows) < 3 {
		return fmt.Errorf("scaling: only %d rows", len(e.Rows))
	}
	first, last := e.Rows[0], e.Rows[len(e.Rows)-1]
	// Strong scaling: the largest machine beats one node clearly.
	if sp := first.StrongNS / last.StrongNS; sp < 2 {
		return fmt.Errorf("scaling: strong speedup at %d nodes only %.2fx", last.Nodes, sp)
	}
	// Weak scaling: growing machine and input together must not blow up
	// (allow generous slack for log-factor rounds and the all-to-all).
	if ratio := last.WeakNS / first.WeakNS; ratio > 8 {
		return fmt.Errorf("scaling: weak-scaling time grew %.1fx from 1 to %d nodes", ratio, last.Nodes)
	}
	return nil
}
