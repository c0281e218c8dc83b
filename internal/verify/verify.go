// Package verify is the differential verification harness: it runs every
// distributed kernel against its sequential oracle — and selected kernel
// pairs against each other — across a randomized matrix of machine
// configurations, collective option vectors, and graph families.
//
// The battery (Checks) is rows of data over the serve kernel registry, and
// RunCheck is the one way to run a row. A row's Kernel is run through
// serve.RunKernel on the trial's inputs and held to the registry row's own
// oracle (serve.Verify); its Twin, a second registry kernel run on the same
// cluster, must reproduce Kernel's labels or ranks bit for bit; Canonical
// demands the labels equal seq.CC exactly; Wire puts the row in the subset
// that must pass identically over the socket transport. Four kinds of row
// keep a Run func because there is no registry row to name: the collective
// laws (they test the collectives, not a kernel), the serve/* checks (they
// test the Service and the dispatch seam itself), cc/spanning-forest (the
// forest kernel without the Euler tour the registry row appends) and
// listrank/fused (a variant of the wyllie row). Where a row runs is an Env:
// collective fault, chaos schedule, recovery supervisor, in process or as a
// hosted wire cluster or on a connected seat — Run, MutationSelfTest,
// ChaosRun, WireRun and cmd/pgasnode differ only in the Env they pass.
//
// Three layers of evidence back each run:
//
//  1. Oracle checks: each kernel's output is compared exactly against a
//     sequential reference (internal/seq) on the same input.
//  2. Differential checks: independent kernels solving the same problem
//     (SV vs coalesced CC, CGM vs Wyllie ranking) must agree on the same
//     simulated cluster, catching bugs a weak oracle would miss.
//  3. Mutation self-test: known faults injected into the collective layer
//     (see collective.Fault) must each be caught by the battery,
//     certifying the harness can actually detect the class of bugs it
//     exists to find.
//
// Failures shrink to a minimal (graph, machine, options) triple before
// reporting, so a counterexample is small enough to debug by hand.
package verify

import (
	"fmt"
	"io"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// Config parameterizes a harness run.
type Config struct {
	// Seed drives all sampling; a given (Seed, Rounds, MaxN) replays
	// exactly.
	Seed uint64
	// Rounds is the number of trials to sample.
	Rounds int
	// MaxN bounds sampled input sizes (vertices, list nodes).
	MaxN int64
	// MaxShrinkRuns bounds the predicate evaluations spent shrinking
	// each failure. Zero disables shrinking.
	MaxShrinkRuns int
	// Checks restricts the battery to names in this set (nil = all).
	Checks map[string]bool
	// ForceScheme, when non-nil, pins every sampled trial to one partition
	// scheme instead of the default rotation — used by CI to soak a single
	// scheme explicitly. Sampling streams are unchanged (the scheme draw
	// still happens, its result is just overridden).
	ForceScheme *pgas.SchemeKind
	// Log, when non-nil, receives per-round progress lines.
	Log io.Writer
}

// Failure records one check that disagreed with its oracle, after
// shrinking.
type Failure struct {
	// Check is the failing check's name.
	Check string
	// Err is the mismatch description from the shrunk trial.
	Err error
	// Trial is the minimal failing trial found within the shrink budget.
	Trial *Trial
	// Original is the trial as first sampled, before shrinking.
	Original *Trial
	// ShrinkRuns is how many predicate evaluations shrinking used.
	ShrinkRuns int
}

func (f *Failure) String() string {
	s := fmt.Sprintf("%s: %v\n  trial: %s", f.Check, f.Err, f.Trial)
	if f.ShrinkRuns > 0 {
		s += fmt.Sprintf("\n  original: %s\n  (shrunk in %d runs)", f.Original, f.ShrinkRuns)
	}
	return s
}

// Report summarizes a harness run.
type Report struct {
	// Rounds is the number of trials executed.
	Rounds int
	// ChecksRun counts check executions that were applicable.
	ChecksRun int
	// Skipped counts check executions gated off by Applicable.
	Skipped int
	// Failures holds every detected mismatch, shrunk.
	Failures []*Failure
}

// OK reports whether the run found no mismatches.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Run executes the harness matrix and returns the aggregated report. The
// fault injected is always FaultNone — mutation testing goes through
// MutationSelfTest instead.
func Run(cfg Config) *Report {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 400
	}
	rep := &Report{Rounds: cfg.Rounds}
	battery := Checks()
	for round := 0; round < cfg.Rounds; round++ {
		rng := xrand.New(cfg.Seed).Split(uint64(round))
		t := SampleTrial(rng, round, cfg.MaxN)
		if cfg.ForceScheme != nil {
			t.Scheme = *cfg.ForceScheme
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "round %d: %s\n", round, t)
		}
		for _, c := range battery {
			if cfg.Checks != nil && !cfg.Checks[c.Name] {
				continue
			}
			if !c.Applicable(t) {
				rep.Skipped++
				continue
			}
			rep.ChecksRun++
			err := RunCheck(c, t, Env{}).Err
			if err == nil {
				continue
			}
			f := &Failure{Check: c.Name, Err: err, Trial: t, Original: t}
			if cfg.MaxShrinkRuns > 0 {
				f.Trial, f.ShrinkRuns = Shrink(c, t, cfg.MaxShrinkRuns)
				if e2 := RunCheck(c, f.Trial, Env{}).Err; e2 != nil {
					f.Err = e2
				}
			}
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "FAIL %s\n", f)
			}
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep
}
