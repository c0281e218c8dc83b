package experiments

import (
	"fmt"
	"math"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/report"
)

// expBFS quantifies the paper's §I argument for preferring poly-log PRAM
// kernels over BFS-style traversal: level-synchronous BFS needs Ω(d)
// rounds (d the diameter), so its distributed running time degrades on
// high-diameter inputs, while the paper's CC runs in O(log n)-ish rounds
// regardless of topology. Two inputs with identical n and m — a random
// graph (d ~ log n) and a 2D grid (d ~ 2*sqrt(n)) — make the contrast
// directly visible.
type expBFS struct {
	Cfg  Config
	Rows []expBFSRow
}

// expBFSRow is one topology's measurements.
type expBFSRow struct {
	Name      string
	N, M      int64
	BFSNS     float64
	BFSLevels int
	CCNS      float64
	CCIters   int
}

// runBFS executes the comparison.
func runBFS(cfg Config) *expBFS {
	cfg = cfg.WithDefaults()
	e := &expBFS{Cfg: cfg}

	// A square grid and a same-size random graph (grids have m ~ 2n).
	side := int64(math.Sqrt(float64(cfg.N(paper100M) / 4)))
	if side < 16 {
		side = 16
	}
	n := side * side
	grid := graph.Grid(side, side)
	random := graph.Random(n, grid.M(), cfg.Seed)

	col := collective.Optimized(2)
	ccOpts := &cc.Options{Col: collective.Optimized(2), Compact: true}
	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}

	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random (low diameter)", random},
		{fmt.Sprintf("grid %dx%d (high diameter)", side, side), grid},
	} {
		rtB := cfg.Runtime(cfg.Nodes, tpn)
		b := bfs.Coalesced(rtB, collective.NewComm(rtB), in.g, 0, col)

		rtC := cfg.Runtime(cfg.Nodes, tpn)
		c := cc.Coalesced(rtC, collective.NewComm(rtC), in.g, ccOpts)

		e.Rows = append(e.Rows, expBFSRow{
			Name:      in.name,
			N:         in.g.N,
			M:         in.g.M(),
			BFSNS:     b.Run.SimNS,
			BFSLevels: b.Levels,
			CCNS:      c.Run.SimNS,
			CCIters:   c.Iterations,
		})
	}
	return e
}

// Table renders the comparison.
func (e *expBFS) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("BFS vs CC under diameter (§I) — %d nodes x 8 threads; simulated ms", e.Cfg.Nodes),
		"input", "n", "m", "BFS", "BFS levels", "CC", "CC iterations")
	for _, r := range e.Rows {
		t.AddRow(r.Name, report.Count(r.N), report.Count(r.M),
			report.MS(r.BFSNS), fmt.Sprint(r.BFSLevels),
			report.MS(r.CCNS), fmt.Sprint(r.CCIters))
	}
	t.AddNote("BFS pays one synchronized round per level (Ω(diameter)); CC's rounds stay poly-log on any topology")
	return t
}

// CheckShape asserts the diameter sensitivity.
func (e *expBFS) CheckShape() error {
	if len(e.Rows) != 2 {
		return fmt.Errorf("bfs: %d rows, want 2", len(e.Rows))
	}
	rnd, grid := e.Rows[0], e.Rows[1]
	if grid.BFSLevels < 8*rnd.BFSLevels {
		return fmt.Errorf("bfs: grid levels (%d) not far above random's (%d)",
			grid.BFSLevels, rnd.BFSLevels)
	}
	bfsRatio := grid.BFSNS / rnd.BFSNS
	ccRatio := grid.CCNS / rnd.CCNS
	if bfsRatio < 2*ccRatio {
		return fmt.Errorf("bfs: diameter hurt BFS only %.1fx vs CC's %.1fx, want >= 2x gap",
			bfsRatio, ccRatio)
	}
	// CC's iteration count stays small on both topologies.
	if grid.CCIters > 4*rnd.CCIters+8 {
		return fmt.Errorf("bfs: CC iterations exploded on the grid: %d vs %d",
			grid.CCIters, rnd.CCIters)
	}
	return nil
}
