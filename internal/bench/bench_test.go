package bench

import (
	"strings"
	"testing"
)

// TestCollectivesRecords runs the micro-benchmark harness at a tiny call
// count and checks the record shape: one record per collective, positive
// wall time, deterministic positive simulated time, and a steady-state
// allocation rate near zero (the arena contract).
func TestCollectivesRecords(t *testing.T) {
	cfg := Defaults()
	cfg.Calls = 8
	recs, err := Collectives(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"collective/GetD": true, "collective/SetD": true, "collective/SetDMin": true,
		"collective/Exchange": true, "collective/GetDPair": true, "collective/PlanReuse": true,
		"collective/GetD+ckpt": true, "collective/GetD+combine": true,
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if !want[r.Name] {
			t.Errorf("unexpected record %q", r.Name)
		}
		if r.NSPerOp <= 0 || r.SimMS <= 0 {
			t.Errorf("%s: non-positive measurement: %+v", r.Name, r)
		}
		// At 8 calls the amortized region setup still divides out to
		// well under one alloc per op when the hot path itself is clean.
		if r.AllocsPerOp > 8 {
			t.Errorf("%s: %f allocs/op, steady state should be ~0", r.Name, r.AllocsPerOp)
		}
	}
	// Plan reuse skips the grouping sort and matrix publish, so its
	// per-op simulated time must sit strictly below the rebuilding GetD.
	byName := map[string]float64{}
	for _, r := range recs {
		byName[r.Name] = r.SimMS
	}
	if byName["collective/PlanReuse"] >= byName["collective/GetD"] {
		t.Errorf("PlanReuse sim %f ms/op not below rebuilding GetD %f ms/op",
			byName["collective/PlanReuse"], byName["collective/GetD"])
	}
	// 2 048 requests for 64 roots: combining delivers a thirty-second of
	// them, which must outweigh its probe and fan-out.
	if byName["collective/GetD+combine"] >= byName["collective/GetD"] {
		t.Errorf("combined GetD on 64 roots sim %f ms/op not below plain GetD %f ms/op",
			byName["collective/GetD+combine"], byName["collective/GetD"])
	}
	// The checkpointed record pays the snapshot tax (commit barrier +
	// block copy) on top of the identical GetD, and nothing else.
	if byName["collective/GetD+ckpt"] <= byName["collective/GetD"] {
		t.Errorf("checkpointed GetD sim %f ms/op not above plain GetD %f ms/op",
			byName["collective/GetD+ckpt"], byName["collective/GetD"])
	}
}

// TestFigureRecordNames pins the figure record namespace without running
// the (slower) experiments: names come from Collectives' sibling, so a
// rename here must be deliberate (it invalidates committed baselines).
func TestFigureRecordNames(t *testing.T) {
	if testing.Short() {
		t.Skip("figure kernels are slow")
	}
	cfg := Defaults()
	cfg.Scale = 0.001
	recs := Figures(cfg)
	if len(recs) == 0 {
		t.Fatal("no figure records")
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "fig2/") && !strings.HasPrefix(r.Name, "fig4/") && !strings.HasPrefix(r.Name, "fig6/") {
			t.Errorf("unexpected figure record %q", r.Name)
		}
		if r.SimMS <= 0 {
			t.Errorf("%s: non-positive sim time", r.Name)
		}
		// cc.Naive-derived series are scheduling-dependent and must carry
		// the async marker; the coalesced series must not.
		fromNaive := strings.HasPrefix(r.Name, "fig2/") || strings.HasSuffix(r.Name, "/smp")
		if r.Async != fromNaive {
			t.Errorf("%s: async=%v, want %v", r.Name, r.Async, fromNaive)
		}
	}
}
