package verify

import (
	"errors"
	"fmt"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// TestShrinkDeterministic pins the shrinker's reproducibility contract:
// for a fixed seed, Shrink must converge on the SAME minimal
// counterexample every time — identical trial, identical edge list,
// identical predicate-run count. A user replaying a failure report must
// land on the exact trial the harness printed; any map iteration or
// other nondeterminism inside shrinkOnce would break that.
//
// The check is synthetic: it "fails" whenever the trial still has an
// edge touching vertex 0 on a multi-threaded machine. That predicate is
// a pure function of the trial shape, so every divergence between runs
// is the shrinker's own.
func TestShrinkDeterministic(t *testing.T) {
	synthetic := Check{
		Name:       "synthetic/shrink-det",
		Applicable: always,
		Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
			if rt.NumThreads() < 2 {
				return nil
			}
			for e := int64(0); e < tr.Graph.M(); e++ {
				if tr.Graph.U[e] == 0 || tr.Graph.V[e] == 0 {
					return errors.New("synthetic failure: vertex 0 still has an edge")
				}
			}
			return nil
		},
	}

	// Find a seed-derived trial the synthetic check rejects.
	var start *Trial
	for round := 0; ; round++ {
		if round > 200 {
			t.Fatal("no failing trial sampled in 200 rounds")
		}
		cand := sampleTrial(xrand.New(0x5EED).Split(uint64(round)), round, 300)
		if runCheck(synthetic, cand, Env{}).Err != nil {
			start = cand
			break
		}
	}

	fingerprint := func(tr *Trial, runs int) string {
		return fmt.Sprintf("%s U=%v V=%v W=%v runs=%d", tr, tr.Graph.U, tr.Graph.V, tr.Graph.W, runs)
	}

	var first string
	for i := 0; i < 10; i++ {
		min, runs := shrink(synthetic, start, 500)
		if runCheck(synthetic, min, Env{}).Err == nil {
			t.Fatalf("run %d: shrunk trial no longer fails: %s", i, min)
		}
		fp := fingerprint(min, runs)
		if i == 0 {
			first = fp
			t.Logf("minimal counterexample: %s", fp)
			continue
		}
		if fp != first {
			t.Fatalf("run %d diverged:\n  first: %s\n  now:   %s", i, first, fp)
		}
	}
}
