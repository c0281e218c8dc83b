package verify

import (
	"fmt"
	"io"
	"time"

	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/xrand"
)

// Chaos soak mode: the differential matrix re-run under deterministic
// fault injection (see pgas.ChaosConfig). Every trial must end in one of
// two acceptable states — the kernel transparently recovers and its
// answer still matches the oracle, or it fails loudly with a classified
// transport error. A trial that hangs, returns a silently wrong answer,
// or dies with an unclassified panic is a bug in the runtime's recovery
// machinery and fails the soak.

// ChaosOutcome classifies how one chaos trial ended.
type ChaosOutcome int

const (
	// ChaosRecovered: faults were injected, retries absorbed them, and
	// the kernel's answer matched its oracle exactly.
	ChaosRecovered ChaosOutcome = iota
	// ChaosClassified: the run failed loudly with a classified pgas
	// error (ErrTransport / ErrTimeout / ErrCorrupt). Acceptable — the
	// fault schedule exceeded the retry budget and the runtime said so.
	ChaosClassified
	// ChaosWrongAnswer: the kernel produced output that disagreed with
	// the oracle, or died with an unclassified panic. Always a bug.
	ChaosWrongAnswer
	// ChaosHang: the trial exceeded the watchdog timeout. Always a bug.
	ChaosHang
	// ChaosRecoveredByRollback: one or more threads were permanently
	// evicted mid-trial, the recovery supervisor remapped and rolled back,
	// and the final answer still matched the oracle exactly. Only emitted
	// in kill mode. (Declared after ChaosHang so older outcome values —
	// and digests built from them — keep their encodings.)
	ChaosRecoveredByRollback
)

func (o ChaosOutcome) String() string {
	switch o {
	case ChaosRecovered:
		return "recovered"
	case ChaosClassified:
		return "classified-failure"
	case ChaosWrongAnswer:
		return "WRONG-ANSWER"
	case ChaosHang:
		return "HANG"
	case ChaosRecoveredByRollback:
		return "recovered-by-rollback"
	}
	return "unknown"
}

// ChaosTrialResult records one chaos trial.
type ChaosTrialResult struct {
	// Round is the trial index within the soak.
	Round int
	// Check names the battery check exercised this trial.
	Check string
	// Outcome classifies how the trial ended.
	Outcome ChaosOutcome
	// Err is the failure description (nil when recovered).
	Err error
	// Stats counts the faults actually injected and retries spent.
	Stats pgas.ChaosStats
	// Rollbacks counts checkpoint rollbacks the trial recovered through
	// (kill mode only).
	Rollbacks int
	// Evicted lists the thread ids evicted across the trial's recovery
	// rounds (kill mode only).
	Evicted []int
	// Trial is the sampled matrix point.
	Trial *Trial
}

// ChaosRunConfig parameterizes a chaos soak.
type ChaosRunConfig struct {
	// Seed drives trial sampling AND the per-trial fault schedules; a
	// given (Seed, Trials, MaxN) replays bit-for-bit.
	Seed uint64
	// Trials is the number of chaos trials to run.
	Trials int
	// MaxN bounds sampled input sizes.
	MaxN int64
	// Timeout is the per-trial watchdog; a trial still running after
	// this long is reported as a hang. Defaults to 60s.
	Timeout time.Duration
	// Kill arms the kill rotation: trials additionally sample a thread
	// eviction rate and run under the checkpoint/rollback recovery
	// supervisor. Every evicted trial must end RecoveredByRollback or
	// cleanly Classified. With Kill false no extra random draws happen,
	// so non-kill soaks replay their historical schedules exactly.
	Kill bool
	// ForceScheme, when non-nil, pins every trial to one partition scheme
	// instead of the default rotation. The digest is only comparable
	// between soaks that pin the same scheme (or both leave it nil).
	ForceScheme *pgas.SchemeKind
	// Log, when non-nil, receives per-trial progress lines.
	Log io.Writer
}

// ChaosReport aggregates a chaos soak.
type ChaosReport struct {
	// Trials holds every trial result in order.
	Trials []ChaosTrialResult
	// Recovered / Classified / Wrong / Hangs / RecoveredByRollback count
	// outcomes.
	Recovered           int
	Classified          int
	Wrong               int
	Hangs               int
	RecoveredByRollback int
	// Rollbacks totals checkpoint rollbacks across all trials (kill mode).
	Rollbacks int
	// Stats sums fault counters across all completed trials.
	Stats pgas.ChaosStats
}

// OK reports whether the soak saw no hangs and no silent wrong answers.
// Classified failures are acceptable: the runtime failed loudly.
func (r *ChaosReport) OK() bool { return r.Wrong == 0 && r.Hangs == 0 }

// Digest folds every trial's outcome and exact fault counters into one
// fingerprint. Two soaks with the same config must produce the same
// digest — this is the determinism guarantee the regression test pins.
func (r *ChaosReport) Digest() uint64 {
	h := digestSeed
	for i := range r.Trials {
		tr := &r.Trials[i]
		h.mix(uint64(tr.Round))
		h.mix(uint64(tr.Outcome))
		h.mixString(tr.Check)
		for _, v := range []int64{tr.Stats.Ops, tr.Stats.Delays, tr.Stats.Dups, tr.Stats.Drops,
			tr.Stats.Corrupts, tr.Stats.Stalls, tr.Stats.Retries, tr.Stats.Kills, int64(tr.Rollbacks)} {
			h.mix(uint64(v))
		}
		for _, id := range tr.Evicted {
			h.mix(uint64(id))
		}
	}
	return uint64(h)
}

// sampleChaosConfig draws a fault schedule for one trial: the default
// rates scaled by a sampled hostility factor, with an occasional starved
// retry budget so the classified-failure path gets exercised too. With
// kill set it additionally samples a thread-eviction rate; the extra draw
// happens only in kill mode, so non-kill soaks keep their historical
// sampling streams bit-for-bit.
func sampleChaosConfig(rng *xrand.Rand, kill bool) pgas.ChaosConfig {
	cfg := pgas.DefaultChaos(rng.Uint64())
	scale := []float64{0.25, 1, 1, 2, 4}[rng.Intn(5)]
	cfg.DropRate *= scale
	cfg.CorruptRate *= scale
	cfg.DupRate *= scale
	cfg.DelayRate *= scale
	cfg.StallRate *= scale
	if rng.Intn(6) == 0 {
		// Starve the retry budget: a single drawn fault now exhausts
		// delivery attempts, forcing the loud ErrTimeout path.
		cfg.MaxAttempts = 1 + rng.Intn(2)
	}
	if kill {
		// Rates span "kills are rare" to "most trials lose a thread":
		// both the straight-through and the rollback paths get exercised.
		cfg.KillRate = []float64{0.0002, 0.0005, 0.001, 0.002}[rng.Intn(4)]
	}
	return cfg
}

// ChaosRun executes the chaos soak: each trial samples a matrix point
// and a fault schedule, rotates to the next applicable battery check,
// and runs it under a watchdog. Determinism: everything derives from
// cfg.Seed, so re-running the same config reproduces the same fault
// schedule and the same outcomes bit-for-bit (see Digest).
func ChaosRun(cfg ChaosRunConfig) *ChaosReport {
	if cfg.Trials <= 0 {
		cfg.Trials = 50
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 300
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	battery := Checks()
	rep := &ChaosReport{}
	for round := 0; round < cfg.Trials; round++ {
		rng := xrand.New(cfg.Seed).Split(0xC4A05 ^ uint64(round))
		t := SampleTrial(rng, round, cfg.MaxN)
		if cfg.ForceScheme != nil {
			t.Scheme = *cfg.ForceScheme
		}
		ccfg := sampleChaosConfig(rng, cfg.Kill)

		var c Check
		found := false
		for j := 0; j < len(battery); j++ {
			cand := battery[(round+j)%len(battery)]
			if !cand.RacyOps && cand.Applicable(t) {
				c, found = cand, true
				break
			}
		}
		if !found {
			continue
		}

		res := ChaosTrialResult{Round: round, Check: c.Name, Trial: t}
		env := Env{Chaos: &ccfg}
		if cfg.Kill {
			env.Recover = &recovery.Config{} // the supervisor's defaults
		}
		if ran, hung := watched(cfg.Timeout, c, t, env); hung {
			res.Outcome = ChaosHang
			res.Err = fmt.Errorf("trial still running after %v watchdog", cfg.Timeout)
		} else {
			res.Stats, res.Err = ran.Stats, ran.Err
			res.Rollbacks, res.Evicted = ran.Reports[0].Rollbacks, ran.Reports[0].Evicted
			res.Outcome = outcomeOf(res.Err, res.Rollbacks)
			rep.Stats.Add(res.Stats)
			rep.Rollbacks += res.Rollbacks
		}
		switch res.Outcome {
		case ChaosRecovered:
			rep.Recovered++
		case ChaosClassified:
			rep.Classified++
		case ChaosWrongAnswer:
			rep.Wrong++
		case ChaosHang:
			rep.Hangs++
		case ChaosRecoveredByRollback:
			rep.RecoveredByRollback++
		}
		if cfg.Log != nil {
			line := fmt.Sprintf("chaos %d: %s %s faults=%d retries=%d",
				round, c.Name, res.Outcome, res.Stats.Faults(), res.Stats.Retries)
			if res.Stats.Kills > 0 || res.Rollbacks > 0 {
				line += fmt.Sprintf(" kills=%d rollbacks=%d evicted=%v",
					res.Stats.Kills, res.Rollbacks, res.Evicted)
			}
			if res.Err != nil && res.Outcome != ChaosClassified {
				line += fmt.Sprintf(" err=%v", res.Err)
			}
			fmt.Fprintln(cfg.Log, line)
		}
		rep.Trials = append(rep.Trials, res)
	}
	return rep
}
