package verify

import (
	"errors"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// sampleMultiNodeTrial draws trials until one lands on a multi-node
// machine, so remote traffic (the only kind chaos faults) exists.
func sampleMultiNodeTrial(t *testing.T, salt uint64) *Trial {
	t.Helper()
	for round := 0; ; round++ {
		rng := xrand.New(0xBEEF ^ salt).Split(uint64(round))
		tr := sampleTrial(rng, round, 200)
		if tr.Machine.Nodes >= 2 {
			return tr
		}
	}
}

// soak runs row s for trials trials under cfg.
func soak(s Soak, trials int, cfg Config) *Report {
	s.Trials = trials
	return s.Run(cfg)
}

// assertSoakOK fails the test on every run of rep that hung or went wrong,
// and on a soak that ran nothing.
func assertSoakOK(t *testing.T, rep *Report) {
	t.Helper()
	if rep.OK() {
		return
	}
	if rep.Checks == 0 {
		t.Fatalf("%s ran no checks", rep.Soak)
	}
	for _, rec := range rep.Records {
		if rec.Outcome == Wrong || rec.Outcome == Hang {
			t.Errorf("%s %s\n  trial: %s", rep.Soak, rec.line(), rec.Trial)
		}
	}
	t.FailNow()
}

// chaosCompare runs a soak twice and fails the test on the first run whose
// outcome or exact fault counters differ — the bit-for-bit determinism
// guarantee -chaos replay depends on.
func chaosCompare(t *testing.T, s Soak, trials int, cfg Config) *Report {
	t.Helper()
	a, b := soak(s, trials, cfg), soak(s, trials, cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Outcome != rb.Outcome || ra.Check != rb.Check || ra.Stats != rb.Stats {
			t.Errorf("run %d diverged:\n  A: %s\n  B: %s", i, ra.line(), rb.line())
		}
	}
	if uint64(a.digest) != uint64(b.digest) {
		t.Errorf("digests differ: %#x vs %#x", uint64(a.digest), uint64(b.digest))
	}
	return a
}

// TestChaosDeterminism: the same (seed, trials, maxn) must reproduce the
// same fault schedule and the same outcomes, trial for trial.
func TestChaosDeterminism(t *testing.T) {
	reps := 1
	if !testing.Short() {
		reps = 2
	}
	for i := 0; i < reps; i++ {
		a := chaosCompare(t, Chaos, 12, Config{Seed: 0xC4A05, MaxN: 150})
		if a.Stats.Faults() == 0 {
			t.Fatalf("soak injected no faults — chaos layer never armed?")
		}
	}
}

// TestChaosDeterminismHeavy: a full-size soak compared trial-for-trial.
// This width is what exposed the barrier-completion race (a waiter whose
// generation had already released could spuriously observe a later
// breakBarrier and unwind early, making survivor progress after a
// classified failure scheduling-dependent) — keep it wide.
func TestChaosDeterminismHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy soak comparison skipped in -short")
	}
	t.Parallel()
	chaosCompare(t, Chaos, 200, Config{Seed: 1, MaxN: 400})
}

// TestChaosSoakSmall: a short soak must finish with zero hangs and zero
// silent wrong answers; faults must actually have been injected.
func TestChaosSoakSmall(t *testing.T) {
	trials := 10
	if !testing.Short() {
		trials = 25
	}
	rep := soak(Chaos, trials, Config{Seed: 99, MaxN: 200})
	assertSoakOK(t, rep)
	if rep.Stats.Faults() == 0 {
		t.Fatalf("soak injected no faults")
	}
	if rep.Count[Passed] == 0 {
		t.Fatalf("no trial recovered — retry layer never absorbed a fault schedule")
	}
}

// TestChaosKillSoak: a kill-rotation soak must see zero hangs and zero
// silent wrong answers; at least one trial must actually evict a thread
// and recover by rollback (otherwise the rotation is inert), and the
// whole soak must replay digest-identical.
func TestChaosKillSoak(t *testing.T) {
	cfg, trials := Config{Seed: 0x51CC, MaxN: 200}, 30
	if testing.Short() {
		// Seed 0x51CC draws its first kill after trial 12; this pair draws
		// four kills and three rollbacks in 12.
		cfg.Seed, trials = 0x51D1, 12
	}
	a := soak(ChaosKill, trials, cfg)
	assertSoakOK(t, a)
	if a.Stats.Kills == 0 {
		t.Fatal("kill soak never killed a thread — kill rotation inert")
	}
	if a.Count[RolledBack] == 0 {
		t.Fatal("no trial recovered by rollback")
	}
	if b := soak(ChaosKill, trials, cfg); uint64(a.digest) != uint64(b.digest) {
		t.Fatalf("kill soak digests differ: %#x vs %#x", uint64(a.digest), uint64(b.digest))
	}
}

// TestChaosKillOffPreservesSchedules: the kill-free row must replay the
// exact pre-kill-mode schedule — the kill draw must not shift the sampling
// stream or the per-trial fault schedules of existing soaks (their digests
// are regression anchors).
func TestChaosKillOffPreservesSchedules(t *testing.T) {
	a := soak(Chaos, 8, Config{Seed: 99, MaxN: 150})
	if a.Stats.Kills != 0 {
		t.Fatalf("kill-off soak recorded %d kills", a.Stats.Kills)
	}
	for i := range a.Records {
		if a.Records[i].Rollbacks != 0 {
			t.Fatalf("kill-off run %d rolled back", i)
		}
	}
}

// TestSoakDigestsGolden pins, at small size, the digests of the rows whose
// CI-size values .github/digests holds. They were generated by the drivers
// the rows replaced, so a change to what any row samples, picks, runs or
// folds fails here and not only in CI's 200-trial soaks. Each point draws
// both outcomes the fold distinguishes: the chaos rows a classified
// failure, the kill rows a rollback.
func TestSoakDigestsGolden(t *testing.T) {
	t.Parallel() // the wire-kill point waits on sockets; overlap it
	cyclic, hub := pgas.SchemeCyclic, pgas.SchemeHub
	for _, tc := range []struct {
		name   string
		row    Soak
		trials int
		cfg    Config
		want   uint64
	}{
		{"chaos", Chaos, 12, Config{Seed: 1}, 0x68b294de63919908},
		{"chaos-kill", ChaosKill, 12, Config{Seed: 0x51D1}, 0xb53fbd78b9fcc459},
		{"chaos-cyclic", Chaos, 12, Config{Seed: 1, Scheme: &cyclic}, 0xee8446a518ea1006},
		{"chaos-hub", Chaos, 12, Config{Seed: 1, Scheme: &hub}, 0xf258a464ab7b4c57},
		{"wire-kill", WireKill, 6, Config{Seed: 1}, 0xf1dc9cd7471bc260},
	} {
		tc.cfg.MaxN = 160
		rep := soak(tc.row, tc.trials, tc.cfg)
		assertSoakOK(t, rep)
		if got := uint64(rep.digest); got != tc.want {
			t.Errorf("%s: digest %#x, pinned %#x (%s)", tc.name, got, tc.want, rep)
		}
	}
}

// TestEmptySoakFails: a soak that runs no check does not pass — neither a
// row with no trials nor a mutation row whose checks never apply.
func TestEmptySoakFails(t *testing.T) {
	if rep := soak(Chaos, 0, Config{Seed: 1, MaxN: 100}); rep.OK() {
		t.Errorf("a soak of zero trials passed: %s", rep)
	}
	row := Mutations[0]
	row.only = func(Check) bool { return false }
	if rep := soak(row, 2, Config{Seed: 1}); rep.OK() {
		t.Errorf("a mutation row that ran no check passed: %s", rep)
	}
}

// TestRunCheckChaosClassified: with a starved retry budget and vicious
// drop rate, a multi-node trial must fail loudly with a classified
// transport error — never silently, never unclassified.
func TestRunCheckChaosClassified(t *testing.T) {
	c := batteryRow(t, "cc/coalesced")
	ccfg := pgas.DefaultChaos(7)
	ccfg.DropRate = 0.9
	ccfg.MaxAttempts = 1
	seen := false
	for round := 0; round < 8 && !seen; round++ {
		tr := sampleMultiNodeTrial(t, uint64(round))
		ran := runCheck(c, tr, Env{Chaos: &ccfg})
		if ran.Err == nil {
			continue // graph landed entirely node-local; no remote traffic
		}
		assertClassifiedDrop(t, ran)
		seen = true
	}
	if !seen {
		t.Fatal("no trial produced remote traffic under a 0.9 drop rate")
	}
}

// assertClassifiedDrop: a run that failed under a drop-heavy schedule failed
// loudly — a classified transport error, with the drops on record.
func assertClassifiedDrop(t *testing.T, ran *checkResult) {
	t.Helper()
	if !errors.Is(ran.Err, pgas.ErrTimeout) && !errors.Is(ran.Err, pgas.ErrTransport) && !errors.Is(ran.Err, pgas.ErrCorrupt) {
		t.Fatalf("failure not classified: %v", ran.Err)
	}
	if ran.Stats.Drops == 0 {
		t.Fatalf("classified failure with no recorded drops: %+v", ran.Stats)
	}
}

// batteryRow returns the battery row of that name.
func batteryRow(t *testing.T, name string) Check {
	t.Helper()
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("%s missing from the battery", name)
	return Check{}
}
