package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/report"
	"pgasgraph/internal/sim"
)

// expCCMerge stages the paper's concluding argument directly: the
// coalesced shared-memory-style CC ("coordinate multiple processors to
// process the same input in parallel") against a communication-efficient
// forest-merging CC (local union-find, then a binomial reduction of
// forests — O(log s) rounds, one node finishing alone). Density is the
// interesting axis: the merge approach ships only forests (O(n) per
// round) regardless of m, while its sequential tail and idle processors
// are fixed costs; the coalesced kernel's traffic grows with m but every
// processor stays busy.
type expCCMerge struct {
	Cfg  Config
	Rows []expCCMergeRow
}

// expCCMergeRow is one density's measurements.
type expCCMergeRow struct {
	Density     int64 // m/n
	N, M        int64
	CoalescedNS float64
	MergeNS     float64
	MergeIdleNS float64 // average per-thread wait in the merge run
}

// runCCMerge executes the density sweep.
func runCCMerge(cfg Config) *expCCMerge {
	cfg = cfg.WithDefaults()
	e := &expCCMerge{Cfg: cfg}
	n := cfg.N(paper10M)
	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}
	opts := &cc.Options{Col: collective.Optimized(2), Compact: true}
	for _, d := range []int64{2, 4, 8, 16, 32} {
		g := cfg.RandomGraph(paper10M, paper10M*d)

		rtC := cfg.Runtime(cfg.Nodes, tpn)
		co := cc.Coalesced(rtC, collective.NewComm(rtC), g, opts)

		rtM := cfg.Runtime(cfg.Nodes, tpn)
		mg := cc.MergeCGM(rtM, g)

		e.Rows = append(e.Rows, expCCMergeRow{
			Density:     d,
			N:           n,
			M:           g.M(),
			CoalescedNS: co.Run.SimNS,
			MergeNS:     mg.Run.SimNS,
			MergeIdleNS: mg.Run.AvgByCategory()[sim.CatWait],
		})
	}
	return e
}

// Table renders the sweep.
func (e *expCCMerge) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("CC: coalesced vs communication-efficient forest merging — n=%s, %d nodes x 8 threads; simulated ms",
			report.Count(e.Rows[0].N), e.Cfg.Nodes),
		"m/n", "m", "coalesced CC", "merge CC", "merge idle (avg)", "coalesced/merge")
	for _, r := range e.Rows {
		t.AddRow(fmt.Sprint(r.Density), report.Count(r.M),
			report.MS(r.CoalescedNS), report.MS(r.MergeNS), report.MS(r.MergeIdleNS),
			report.Ratio(r.CoalescedNS/r.MergeNS))
	}
	t.AddNote("merge CC ships only forests (O(n)/round) but serializes onto ever fewer threads;")
	t.AddNote("the coalesced kernel's traffic grows with m while all threads stay busy (§I, §VI)")
	return t
}

// CheckShape asserts the structural relationships.
func (e *expCCMerge) CheckShape() error {
	if len(e.Rows) < 3 {
		return fmt.Errorf("ccmerge: only %d rows", len(e.Rows))
	}
	// The merge approach's idle share is substantial at every density.
	for _, r := range e.Rows {
		if r.MergeIdleNS < 0.10*r.MergeNS {
			return fmt.Errorf("ccmerge: d=%d: merge idle share %.2f, want >= 0.10",
				r.Density, r.MergeIdleNS/r.MergeNS)
		}
	}
	// The paper's concluding claim: coordinating all processors beats the
	// round-minimizing approach — at every density here.
	for _, r := range e.Rows {
		if r.CoalescedNS >= r.MergeNS {
			return fmt.Errorf("ccmerge: d=%d: coalesced (%.0f) not faster than merge (%.0f)",
				r.Density, r.CoalescedNS, r.MergeNS)
		}
	}
	return nil
}
