package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/report"
	"pgasgraph/internal/sim"
)

// expListRank is the auxiliary experiment behind the paper's §I-§II
// discussion: distributed list ranking solved two ways —
//
//   - Wyllie pointer jumping with coalesced collectives: O(log n) rounds,
//     O(n log n) total work, every processor busy;
//   - the communication-efficient CGM algorithm: O(log p) contraction
//     rounds, O(n) work, but a sequential ranking step on one node whose
//     pointer chasing and idle peers are exactly what the paper criticizes.
//
// The series report both against the naive (uncoalesced) translation and
// the sequential baseline, sweeping node count so the CGM sequential step
// handles n/p elements of growing size: its share of CGM's total time is
// the paper's "poor cache performance in the sequential processing step"
// made measurable.
type expListRank struct {
	Cfg     Config
	N       int64
	Nodes   []int
	Wyllie  []float64
	CGM     []float64
	SeqStep []float64 // simulated time of CGM's sequential step alone
	NaiveNS float64   // naive Wyllie at the full cluster size
	SeqNS   float64
}

// runListRank executes the sweep.
func runListRank(cfg Config) *expListRank {
	cfg = cfg.WithDefaults()
	n := cfg.N(paper100M)
	l := listrank.RandomList(n, cfg.Seed)
	e := &expListRank{Cfg: cfg, N: n, Nodes: []int{2, 4, 8, 16}}
	col := collective.Optimized(2)

	for _, p := range e.Nodes {
		rtW := cfg.Runtime(p, 8)
		w := listrank.Wyllie(rtW, collective.NewComm(rtW), l, col)
		e.Wyllie = append(e.Wyllie, w.Run.SimNS)

		rtC := cfg.Runtime(p, 8)
		c := listrank.CGM(rtC, collective.NewComm(rtC), l, col)
		e.CGM = append(e.CGM, c.Run.SimNS)
		// The sequential step runs on thread 0 while everyone idles; its
		// duration is the dominant share of the run's total wait divided
		// among the other s-1 threads. Approximate it by the irregular
		// time charged to thread 0's category (the ranking walk).
		e.SeqStep = append(e.SeqStep, c.Run.SumByCategory[sim.CatIrregular])
	}

	rtN := cfg.Runtime(4, 1)
	naive := listrank.WyllieNaive(rtN, l)
	e.NaiveNS = naive.Run.SimNS

	_, e.SeqNS = listrank.SeqRankTimed(l, sim.NewModel(cfg.Machine(1, 1)))
	return e
}

// Table renders the series.
func (e *expListRank) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("List ranking (§I-§II): Wyllie vs communication-efficient CGM — n=%s, 8 threads/node; simulated ms",
			report.Count(e.N)),
		"nodes", "Wyllie", "CGM", "CGM seq-step", "seq-step share", "Wyllie/CGM")
	for i, p := range e.Nodes {
		t.AddRow(fmt.Sprint(p),
			report.MS(e.Wyllie[i]), report.MS(e.CGM[i]), report.MS(e.SeqStep[i]),
			fmt.Sprintf("%.0f%%", 100*e.SeqStep[i]/e.CGM[i]),
			report.Ratio(e.Wyllie[i]/e.CGM[i]))
	}
	t.AddRow("naive (4x1)", report.MS(e.NaiveNS), "", "", "", "")
	t.AddRow("sequential", report.MS(e.SeqNS), "", "", "", "")
	t.AddNote("CGM's O(n) work beats Wyllie's O(n log n) here; the paper's criticism — the sequential")
	t.AddNote("step's cache-hostile share — grows as nodes shrink (left column up, share up)")
	return t
}

// CheckShape asserts the relationships that hold at any scale.
func (e *expListRank) CheckShape() error {
	last := len(e.Nodes) - 1
	// Coalescing wins massively over the naive translation.
	if e.NaiveNS < 5*e.Wyllie[last] {
		return fmt.Errorf("listrank: naive (%.0f) not clearly slower than Wyllie (%.0f)",
			e.NaiveNS, e.Wyllie[last])
	}
	// Both distributed algorithms scale with nodes.
	if e.Wyllie[0] <= e.Wyllie[last] {
		return fmt.Errorf("listrank: Wyllie does not scale: %v", e.Wyllie)
	}
	if e.CGM[0] <= e.CGM[last] {
		return fmt.Errorf("listrank: CGM does not scale: %v", e.CGM)
	}
	// The sequential-step share grows as the node count shrinks (the
	// paper's criticized bottleneck).
	shareSmallP := e.SeqStep[0] / e.CGM[0]
	shareLargeP := e.SeqStep[last] / e.CGM[last]
	if shareSmallP <= shareLargeP {
		return fmt.Errorf("listrank: sequential-step share did not grow with n/p: %.2f vs %.2f",
			shareSmallP, shareLargeP)
	}
	// The full cluster beats one modeled CPU.
	if e.SeqNS <= e.Wyllie[last] && e.SeqNS <= e.CGM[last] {
		return fmt.Errorf("listrank: sequential (%.0f) beats both distributed runs", e.SeqNS)
	}
	return nil
}
