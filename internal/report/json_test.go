package report

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func sampleReport() *BenchReport {
	return &BenchReport{
		Schema: BenchSchema,
		Nodes:  4, ThreadsPerNode: 4, Calls: 256, Scale: 0.002, Seed: 42,
		Records: []BenchRecord{
			{Name: "collective/GetD", NSPerOp: 1000, AllocsPerOp: 0.5, SimMS: 2},
			{Name: "fig2/x/naive", SimMS: 100},
		},
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != BenchSchema || len(back.Records) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Records[0].Name != "collective/GetD" {
		t.Fatal("records not sorted by name")
	}
}

func TestCompareBench(t *testing.T) {
	tol := Tolerances{Wall: 3, Sim: 1.05, AllocSlack: 2}
	base := sampleReport()

	same := sampleReport()
	if bad := CompareBench(base, same, tol); len(bad) != 0 {
		t.Fatalf("identical runs flagged: %v", bad)
	}

	// Within tolerance: 2x wall, +1 alloc, sim unchanged.
	ok := sampleReport()
	ok.Records[0].NSPerOp = 2000
	ok.Records[0].AllocsPerOp = 1.5
	if bad := CompareBench(base, ok, tol); len(bad) != 0 {
		t.Fatalf("in-tolerance run flagged: %v", bad)
	}

	// Each axis out of tolerance is reported.
	slow := sampleReport()
	slow.Records[0].NSPerOp = 4000
	slow.Records[0].AllocsPerOp = 10
	slow.Records[1].SimMS = 120
	bad := CompareBench(base, slow, tol)
	if len(bad) != 3 {
		t.Fatalf("want 3 regressions, got %v", bad)
	}

	// Async records with measured racy work on both sides use the
	// computed tolerance SimRacy * (racy-work ratio).
	racyTol := Tolerances{Wall: 3, Sim: 1.05, SimRacy: 1.2, AllocSlack: 2}
	racyBase := sampleReport()
	racyBase.Records[1].Async = true
	racyBase.Records[1].RacyOps = 1000

	// Same racy work: held to the SimRacy factor. This is the PR3 flake
	// fix — a run whose schedule did no extra work gets only the per-unit
	// budget.
	racy := sampleReport()
	racy.Records[1].Async = true
	racy.Records[1].RacyOps = 1000
	racy.Records[1].SimMS = 115
	if bad := CompareBench(racyBase, racy, racyTol); len(bad) != 0 {
		t.Fatalf("equal-work async drift within SimRacy flagged: %v", bad)
	}
	racy.Records[1].SimMS = 125
	if bad := CompareBench(racyBase, racy, racyTol); len(bad) != 1 {
		t.Fatalf("equal-work async regression not held to SimRacy: %v", bad)
	}

	// 1.5x the racy work buys 1.5x the per-unit budget: 150 ms passes
	// under a 1.2*1.5 = 1.8x bound, 190 ms does not — where the old flat
	// 2x bound would have passed 190 and flaked near schedules that
	// legitimately take over 2x the work.
	racy.Records[1].RacyOps = 1500
	racy.Records[1].SimMS = 150
	if bad := CompareBench(racyBase, racy, racyTol); len(bad) != 0 {
		t.Fatalf("work-proportional drift flagged: %v", bad)
	}
	racy.Records[1].SimMS = 190
	if bad := CompareBench(racyBase, racy, racyTol); len(bad) != 1 {
		t.Fatalf("beyond work-proportional bound not caught: %v", bad)
	}

	// Less racy work than baseline never tightens below one baseline's
	// worth of per-unit budget.
	racy.Records[1].RacyOps = 500
	racy.Records[1].SimMS = 115
	if bad := CompareBench(racyBase, racy, racyTol); len(bad) != 0 {
		t.Fatalf("sub-baseline racy work tightened the bound: %v", bad)
	}

	// Zero SimRacy falls back to the tight Sim factor for the computed path.
	noRacyFactor := Tolerances{Wall: 3, Sim: 1.05, AllocSlack: 2}
	racy.Records[1].RacyOps = 1000
	racy.Records[1].SimMS = 115
	if bad := CompareBench(racyBase, racy, noRacyFactor); len(bad) != 1 {
		t.Fatalf("zero SimRacy did not fall back to Sim: %v", bad)
	}

	// Either side missing RacyOps is held to the tight Sim factor.
	legacy := sampleReport()
	legacy.Records[1].Async = true
	legacy.Records[1].SimMS = 115
	if bad := CompareBench(racyBase, legacy, racyTol); len(bad) != 1 {
		t.Fatalf("RacyOps-less current not held to Sim: %v", bad)
	}

	// Rounds are one-sided exact: fewer rounds than baseline pass (an
	// improvement awaiting a regenerated baseline), even one more round
	// is a regression — convergence counts are deterministic.
	roundsBase := sampleReport()
	roundsBase.Records[1].Rounds = 7
	fewer := sampleReport()
	fewer.Records[1].Rounds = 5
	if bad := CompareBench(roundsBase, fewer, tol); len(bad) != 0 {
		t.Fatalf("fewer convergence rounds flagged: %v", bad)
	}
	more := sampleReport()
	more.Records[1].Rounds = 8
	if bad := CompareBench(roundsBase, more, tol); len(bad) != 1 || !strings.Contains(bad[0], "rounds") {
		t.Fatalf("extra convergence round not caught: %v", bad)
	}
	// A baseline without Rounds never constrains a current run that has
	// them (old baselines keep comparing as before).
	if bad := CompareBench(base, more, tol); len(bad) != 0 {
		t.Fatalf("rounds-less baseline constrained current rounds: %v", bad)
	}

	// A baseline record missing from the current run fails.
	missing := sampleReport()
	missing.Records = missing.Records[:1]
	bad = CompareBench(base, missing, tol)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing") {
		t.Fatalf("missing record not reported: %v", bad)
	}

	// Extra current records are allowed (baseline regenerations add them).
	extra := sampleReport()
	extra.Records = append(extra.Records, BenchRecord{Name: "new/thing", SimMS: 1})
	if bad := CompareBench(base, extra, tol); len(bad) != 0 {
		t.Fatalf("extra record flagged: %v", bad)
	}
}

func TestReadBenchReportRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/b.json"
	r := sampleReport()
	r.Schema = BenchSchema + 1
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReport(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
