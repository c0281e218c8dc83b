package bench

import (
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/experiments"
	"pgasgraph/internal/report"
)

// TestCollectivesRecords runs the micro-benchmark harness at a tiny call
// count and checks the record shape: one record per collective, positive
// wall time, deterministic positive simulated time, and a steady-state
// allocation rate near zero (the arena contract).
func TestCollectivesRecords(t *testing.T) {
	cfg := Defaults()
	cfg.Calls = 8
	recs, err := collectives(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"collective/GetD": true, "collective/SetD": true, "collective/SetDMin": true,
		"collective/Exchange": true, "collective/PlanReuse": true,
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

// TestFigureRecordNames pins the row records to the committed baseline's
// names at a smaller scale: a rename invalidates the baseline, so it must
// be deliberate.
func TestFigureRecordNames(t *testing.T) {
	if testing.Short() {
		t.Skip("figure kernels are slow")
	}
	cfg := Defaults()
	cfg.Scale = 0.001
	recs, err := records(selections(cfg))
	if err != nil {
		t.Fatal(err)
	}
	base, err := report.ReadBenchReport("../../BENCH_collectives.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range base.Records {
		if !strings.HasPrefix(r.Name, "collective/") {
			want = append(want, r.Name)
		}
	}
	for _, r := range recs {
		got = append(got, r.Name)
		if r.SimMS <= 0 {
			t.Errorf("%s: non-positive sim time", r.Name)
		}
		// Every record carries its kernel's rounds, cc.Naive's series too.
		if r.Rounds <= 0 {
			t.Errorf("%s: rounds=%v", r.Name, r.Rounds)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("row records\n %v\nwant the baseline's\n %v", got, want)
	}
}

// TestConvergeCheckFailsTheRun: the converge row's shape — FastSV in
// strictly fewer rounds than SV on RMAT — gates `pgasbench -json`. Running
// SV in FastSV's place breaks it.
func TestConvergeCheckFailsTheRun(t *testing.T) {
	sels := selections(Defaults())
	conv := sels[slices.IndexFunc(sels, func(s selection) bool { return s.row.Name == "converge" })]
	if _, err := records([]selection{conv}); err != nil {
		t.Fatalf("converge as committed: %v", err)
	}
	points := conv.row.Points
	conv.row.Points = func(c experiments.Config, yield func(experiments.Point)) {
		points(c, func(p experiments.Point) {
			if p.Kernel == "cc/fastsv" {
				p.Kernel = "cc/sv"
			}
			yield(p)
		})
	}
	_, err := records([]selection{conv})
	if err == nil || !strings.HasPrefix(err.Error(), "converge: FastSV took") {
		t.Fatalf("SV in FastSV's place: %v, want the converge check's failure", err)
	}
}
