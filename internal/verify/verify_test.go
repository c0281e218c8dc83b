package verify

import (
	"strings"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// TestCleanMatrix runs the full battery over a sampled matrix with no
// injected fault and expects every check to pass — the harness's primary
// regression gate over all kernels x configs x graph families.
func TestCleanMatrix(t *testing.T) {
	rounds := 6
	maxN := int64(220)
	if testing.Short() {
		rounds, maxN = 3, 120
	}
	rep := soak(Clean, rounds, Config{Seed: 0xc0ffee, MaxN: maxN, Shrink: 60})
	for _, rec := range rep.Records {
		if rec.Outcome != Passed {
			t.Errorf("%s\n  trial: %s\n  original: %s (shrunk in %d runs)", rec.line(), rec.Shrunk, rec.Trial, rec.ShrinkRuns)
		}
	}
	if !rep.OK() {
		t.Fatalf("clean matrix failed: %s", rep)
	}
	t.Log(rep)
}

// TestMutationSelfTest asserts every seeded collective fault is caught by
// the battery — the test of the tests required for the harness to count
// as evidence.
func TestMutationSelfTest(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 4
	}
	if len(Mutations) == 0 {
		t.Fatal("no mutation rows: collective.AllFaults lists no fault")
	}
	for _, row := range Mutations {
		rep := soak(row, rounds, Config{Seed: 0xbead})
		t.Log(rep)
		if !rep.OK() {
			t.Errorf("%s escaped the battery", row.Name)
		}
	}
}

// TestShrinkReducesCounterexample shrinks against a synthetic check that
// fails whenever the graph has an edge and the machine has more than one
// thread, and expects the minimal surviving trial.
func TestShrinkReducesCounterexample(t *testing.T) {
	c := Check{
		Name:       "synthetic/edge-and-parallel",
		Applicable: always,
		Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
			if tr.Graph.M() > 0 && rt.NumThreads() > 1 {
				return errGraphHasEdges
			}
			return nil
		},
	}
	rng := xrand.New(7).Split(3)
	var tr *Trial
	for round := 0; ; round++ {
		tr = sampleTrial(rng, round, 200)
		if tr.Graph.M() > 1 && tr.Machine.Nodes*tr.Machine.ThreadsPerNode > 2 {
			break
		}
	}
	shrunk, runs := shrink(c, tr, 200)
	if runs == 0 {
		t.Fatal("shrinking ran no predicates")
	}
	if err := runCheck(c, shrunk, Env{}).Err; err == nil {
		t.Fatal("shrunk trial no longer fails the check")
	}
	if got := shrunk.Graph.M(); got > tr.Graph.M()/2 && tr.Graph.M() > 2 {
		t.Errorf("graph not shrunk: %d edges of original %d", got, tr.Graph.M())
	}
	threads := shrunk.Machine.Nodes * shrunk.Machine.ThreadsPerNode
	if threads > 2 {
		t.Errorf("machine not shrunk: %d threads", threads)
	}
	t.Logf("shrunk %s -> %s in %d runs", tr, shrunk, runs)
}

var errGraphHasEdges = errSentinel("graph has edges on a parallel machine")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// TestRunCheckRecoversPanics: a check that panics (as kernels do when an
// injected fault destroys convergence) must surface as an error, not kill
// the harness.
func TestRunCheckRecoversPanics(t *testing.T) {
	c := Check{
		Name:       "synthetic/panics",
		Applicable: always,
		Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
			panic("kaboom")
		},
	}
	tr := sampleTrial(xrand.New(1), 0, 50)
	err := runCheck(c, tr, Env{}).Err
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// TestRunCheckRecoversThreadPanics: a panic on a simulated pgas thread
// (not the harness goroutine) must also surface as an error, via the
// runtime's panic propagation.
func TestRunCheckRecoversThreadPanics(t *testing.T) {
	c := Check{
		Name:       "synthetic/thread-panics",
		Applicable: always,
		Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
			rt.Run(func(th *pgas.Thread) {
				if th.ID == rt.NumThreads()-1 {
					panic("thread kaboom")
				}
				th.Barrier()
			})
			return nil
		},
	}
	tr := sampleTrial(xrand.New(2), 0, 50).withMachine(2, 2)
	err := runCheck(c, tr, Env{}).Err
	if err == nil || !strings.Contains(err.Error(), "thread kaboom") {
		t.Fatalf("thread panic not converted to error: %v", err)
	}
}

// TestTrialReproducible: the same (seed, round) coordinates must sample
// an identical trial, so failure reports replay exactly.
func TestTrialReproducible(t *testing.T) {
	a := sampleTrial(xrand.New(42).Split(5), 5, 300)
	b := sampleTrial(xrand.New(42).Split(5), 5, 300)
	if a.String() != b.String() {
		t.Fatalf("trials diverge:\n  %s\n  %s", a, b)
	}
	if a.Graph.N != b.Graph.N || a.Graph.M() != b.Graph.M() {
		t.Fatal("sampled graphs diverge for identical coordinates")
	}
	for e := range a.Graph.U {
		if a.Graph.U[e] != b.Graph.U[e] || a.Graph.V[e] != b.Graph.V[e] {
			t.Fatalf("edge %d diverges for identical coordinates", e)
		}
	}
}
