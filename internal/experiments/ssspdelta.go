package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
	"pgasgraph/internal/sssp"
)

// expSSSP sweeps delta-stepping's bucket width on the distributed
// shortest-paths kernel. The trade-off is the classic one: tiny buckets
// degenerate toward Dijkstra (many phases, each a synchronized collective
// round — the diameter-style cost the §I BFS discussion warns about);
// huge buckets degenerate toward Bellman-Ford (few phases, wasted
// re-relaxations). The sweet spot sits between, like Figure 4's t'.
type expSSSP struct {
	Cfg    Config
	N, M   int64
	Deltas []int64
	NS     []float64
	Phases []int
	Relax  []int64
}

// runSSSP executes the sweep on a connected weighted graph.
func runSSSP(cfg Config) *expSSSP {
	cfg = cfg.WithDefaults()
	n := cfg.N(paper10M)
	g := graph.WithRandomWeights(graph.RandomConnected(n, 4*n, cfg.Seed), cfg.Seed+1)
	def := sssp.DefaultDelta(g)
	e := &expSSSP{
		Cfg: cfg, N: g.N, M: g.M(),
		Deltas: []int64{def / 16, def / 4, def, def * 4, def * 16, def * 256},
	}
	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}
	col := collective.Optimized(2)
	for i, d := range e.Deltas {
		if d < 1 {
			d = 1
			e.Deltas[i] = 1
		}
		rt := cfg.Runtime(cfg.Nodes, tpn)
		res := sssp.DeltaStepping(rt, collective.NewComm(rt), g, 0, d, col)
		e.NS = append(e.NS, res.Run.SimNS)
		e.Phases = append(e.Phases, res.Buckets)
		e.Relax = append(e.Relax, res.Relaxations)
	}
	return e
}

// Best returns the index of the fastest delta.
func (e *expSSSP) Best() int {
	best := 0
	for i, v := range e.NS {
		if v < e.NS[best] {
			best = i
		}
	}
	return best
}

// Table renders the sweep.
func (e *expSSSP) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Delta-stepping bucket-width sweep — connected random n=%s m=%s, %d nodes x 8 threads; simulated ms",
			report.Count(e.N), report.Count(e.M), e.Cfg.Nodes),
		"delta", "sim ms", "bucket phases", "relaxations")
	for i, d := range e.Deltas {
		t.AddRow(report.Count(d), report.MS(e.NS[i]),
			fmt.Sprint(e.Phases[i]), report.Count(e.Relax[i]))
	}
	t.AddNote("small delta -> Dijkstra-like (many synchronized phases); large -> Bellman-Ford-like (wasted relaxations)")
	return t
}

// CheckShape asserts the bucket-width trade-off.
func (e *expSSSP) CheckShape() error {
	if len(e.NS) < 4 {
		return fmt.Errorf("sssp: only %d points", len(e.NS))
	}
	// Phases decrease monotonically as delta grows.
	for i := 1; i < len(e.Phases); i++ {
		if e.Phases[i] > e.Phases[i-1] {
			return fmt.Errorf("sssp: phases grew with delta: %v", e.Phases)
		}
	}
	// The smallest delta must be slower than the best (too many rounds).
	b := e.Best()
	if b == 0 {
		return fmt.Errorf("sssp: smallest delta fastest — no round-count penalty visible")
	}
	return nil
}
