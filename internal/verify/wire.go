// Transport conformance: the same harness battery and chaos soak, run over
// the multi-process wire backend. The wire transport is process-agnostic —
// each endpoint only talks through its unix sockets — so the suite hosts a
// p-node cluster as p runtime instances inside one test process and still
// exercises the full wire path: framing, coalescing, CRC, rendezvous,
// replica sync. cmd/pgasnode runs the identical battery with each node as a
// real OS process.
package verify

import (
	"fmt"
	"io"
	"slices"
	"time"

	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/xrand"
)

// wireChecks returns the rows marked Wire, in battery order.
func wireChecks() []Check {
	var out []Check
	for _, c := range Checks() {
		if c.Wire {
			out = append(out, c)
		}
	}
	return out
}

// WireRunConfig parameterizes the transport conformance sweep.
type WireRunConfig struct {
	// Seed drives trial sampling and chaos schedules; replays exactly.
	Seed uint64
	// Rounds is the number of clean (fault-free) conformance trials.
	Rounds int
	// ChaosTrials is the number of dual-backend chaos conformance trials.
	ChaosTrials int
	// KillTrials is the number of supervised wire-kill recovery trials
	// (chaos schedules with permanent thread kills enabled, every node
	// under the recovery supervisor). Zero disables the kill rotation.
	KillTrials int
	// MaxN bounds sampled input sizes.
	MaxN int64
	// Watchdog bounds one whole wire trial. Defaults to 90s.
	Watchdog time.Duration
	// Log, when non-nil, receives per-trial progress lines.
	Log io.Writer
}

// WireReport aggregates a conformance sweep.
type WireReport struct {
	// CleanRuns counts clean battery executions; CleanFailures the ones
	// that returned a mismatch or an error.
	CleanRuns, CleanFailures int
	// ChaosRuns counts dual-backend chaos trials; Recovered and
	// Classified split their (agreeing) outcomes.
	ChaosRuns, Recovered, Classified int
	// Mismatches counts chaos trials where the backends diverged — in
	// outcome, in classification, or in exact fault counters.
	Mismatches int
	// Hangs counts wire trials that outran the watchdog.
	Hangs int
	// KillRuns counts supervised wire-kill recovery trials; KillRecovered
	// the ones the survivors completed (KillRollbacks totals their
	// rollback rounds — a completion with rollbacks is the
	// recovered-by-rollback outcome); KillClassified the ones that failed
	// loudly within budget; KillFailures the ones that failed wrongly
	// (unclassified error, wrong answer, or survivors disagreeing).
	KillRuns, KillRecovered, KillRollbacks, KillClassified, KillFailures int
	// KillDigest folds every kill trial's replay-stable outcome fields;
	// two sweeps of the same seed must produce the same digest.
	KillDigest uint64
	// Failures describes every failing trial.
	Failures []string
}

// OK reports whether every backend pair agreed and nothing hung.
func (r *WireReport) OK() bool {
	return r.CleanFailures == 0 && r.Mismatches == 0 && r.Hangs == 0 && r.KillFailures == 0
}

// wireGeometry forces a genuinely multi-process shape onto a sampled
// trial, rotating through the supported small cluster geometries. Wire
// transports only support the block partition (replica sync and window
// planning assume contiguous ownership), so the sampled scheme is pinned
// back to block — this also keeps the dual-backend chaos comparison
// apples-to-apples, since the in-process twin applies the trial's scheme.
func wireGeometry(t *Trial, round int) *Trial {
	geoms := [][2]int{{2, 2}, {3, 1}, {2, 1}, {2, 4}}
	g := geoms[round%len(geoms)]
	c := t.WithMachine(g[0], g[1])
	c.Scheme = pgas.SchemeBlock
	return c
}

// WireRun executes the transport conformance sweep: the wire battery clean
// across rotating multi-node geometries, then the chaos soak on both
// backends under identical schedules, requiring matching outcomes and —
// on recovered trials — bit-identical fault counters.
func WireRun(cfg WireRunConfig) *WireReport {
	// Zero means the default sweep size; negative disables that phase (so
	// a kill-only sweep can skip the clean and chaos rotations).
	if cfg.Rounds == 0 {
		cfg.Rounds = 8
	}
	if cfg.ChaosTrials == 0 {
		cfg.ChaosTrials = 16
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 300
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 90 * time.Second
	}
	battery := wireChecks()
	rep := &WireReport{}
	// hosted runs one watched trial on a hosted wire cluster; a hang is
	// counted and described here, and comes back as nil.
	hosted := func(phase string, round int, c Check, t *Trial, env Env) *CheckResult {
		env.Wire = true
		ran, hung := watched(cfg.Watchdog, c, t, env)
		if hung {
			rep.Hangs++
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s %d %s: hang after %v", phase, round, c.Name, cfg.Watchdog))
		}
		return ran
	}
	logf := func(phase string, round int, c Check, t *Trial, what string) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "wire %s %d: %s %dx%d %s\n", phase, round, c.Name,
				t.Machine.Nodes, t.Machine.ThreadsPerNode, what)
		}
	}

	for round := 0; round < cfg.Rounds; round++ {
		rng := xrand.New(cfg.Seed).Split(0x31e70 ^ uint64(round))
		t := wireGeometry(SampleTrial(rng, round, cfg.MaxN), round)
		for _, c := range battery {
			if !c.Applicable(t) {
				continue
			}
			rep.CleanRuns++
			ran := hosted("clean", round, c, t, Env{})
			if ran == nil {
				continue
			}
			status := "ok"
			if ran.Err != nil {
				rep.CleanFailures++
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("clean %d %s: %v", round, c.Name, ran.Err))
				status = "FAIL: " + ran.Err.Error()
			}
			logf("clean", round, c, t, status)
		}
	}

	for round := 0; round < cfg.ChaosTrials; round++ {
		rng := xrand.New(cfg.Seed).Split(0xc04f ^ uint64(round))
		t := wireGeometry(SampleTrial(rng, round, cfg.MaxN), round)
		ccfg := sampleChaosConfig(rng, false)
		c := battery[round%len(battery)]
		if !c.Applicable(t) {
			continue
		}
		rep.ChaosRuns++

		in := RunCheck(c, t, Env{Chaos: &ccfg})
		wire := hosted("chaos", round, c, t, Env{Chaos: &ccfg})
		if wire == nil {
			continue
		}
		inStats, inErr, wireStats, wireErr := in.Stats, in.Err, wire.Stats, wire.Err

		var verdict string
		mismatch := false
		switch {
		case (inErr == nil) != (wireErr == nil):
			mismatch = true
			verdict = fmt.Sprintf("OUTCOME DIVERGES: in-process err=%v, wire err=%v", inErr, wireErr)
		case inErr != nil && (!classifiedErr(inErr) || !classifiedErr(wireErr)):
			mismatch = true
			verdict = fmt.Sprintf("UNCLASSIFIED FAILURE: in-process %v, wire %v", inErr, wireErr)
		case inErr != nil:
			rep.Classified++
			verdict = "classified on both"
		case inStats != wireStats:
			mismatch = true
			verdict = fmt.Sprintf("COUNTERS DIVERGE: in-process %+v, wire %+v", inStats, wireStats)
		default:
			rep.Recovered++
			verdict = fmt.Sprintf("recovered, faults=%d retries=%d", inStats.Faults(), inStats.Retries)
		}
		if mismatch {
			rep.Mismatches++
			rep.Failures = append(rep.Failures, fmt.Sprintf("chaos %d %s: %s", round, c.Name, verdict))
		}
		logf("chaos", round, c, t, verdict)
	}

	// Kill rotation: chaos schedules with permanent kills enabled, every
	// node under the recovery supervisor. MinThreads 1 because wire
	// eviction is node-granular — losing one node of a small hosted
	// cluster can halve the geometry.
	h := digestSeed
	killGeoms := [][2]int{{3, 1}, {2, 2}, {4, 1}}
	for round := 0; round < cfg.KillTrials; round++ {
		rng := xrand.New(cfg.Seed).Split(0x417c1 ^ uint64(round))
		g := killGeoms[round%len(killGeoms)]
		t := SampleTrial(rng, round, cfg.MaxN).WithMachine(g[0], g[1])
		t.Scheme = pgas.SchemeBlock
		ccfg := sampleChaosConfig(rng, true)
		c := battery[round%len(battery)]
		if !c.Applicable(t) {
			continue
		}
		rep.KillRuns++
		ran := hosted("kill", round, c, t, Env{Chaos: &ccfg, Recover: &recovery.Config{MinThreads: 1}})
		h.mix(uint64(round))
		h.mixString(c.Name)
		if ran == nil {
			h.mix(uint64(ChaosHang))
			continue
		}
		ref, err := wireKillVerdict(ran.Reports, ran.Errs)
		outcome, detail := outcomeOf(err, ref.Rollbacks), "no kills fired"
		h.mix(uint64(outcome))
		switch outcome {
		case ChaosRecovered:
			rep.KillRecovered++
		case ChaosRecoveredByRollback:
			rep.KillRecovered++
			rep.KillRollbacks += ref.Rollbacks
			// Every survivor agreed on the same rollback history; mix it.
			h.mix(uint64(ref.Rollbacks))
			for _, id := range ref.Evicted {
				h.mix(uint64(id) + 1)
			}
			detail = fmt.Sprintf("rollbacks=%d evicted=%v", ref.Rollbacks, ref.Evicted)
		case ChaosClassified:
			rep.KillClassified++
			detail = err.Error()
		default:
			rep.KillFailures++
			detail = err.Error()
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("kill %d %s: %s: %s", round, c.Name, outcome, detail))
		}
		logf("kill", round, c, t, fmt.Sprintf("kill=%g %s %s", ccfg.KillRate, outcome, detail))
	}
	rep.KillDigest = uint64(h)
	return rep
}

// wireKillVerdict folds one kill trial's per-node results into what the
// outcome ladder reads: the trial's error and the authoritative recovery
// report. The survivors are authoritative: the lowest node that completed
// names the rollback history, and every other survivor must agree on it —
// the membership agreement makes the evicted set exact, so disagreement is
// a determinism bug, not noise. A trial with no survivors fails classified
// when every node failed loudly (budget exhausted, self-evicted, or unwound
// by a peer's abort); an unclassified node error is a wrong answer.
func wireKillVerdict(reps []*recovery.Report, errs []error) (ref *recovery.Report, err error) {
	ref = &recovery.Report{}
	survivor := -1
	for nd, e := range errs {
		if e != nil && !classifiedErr(e) {
			return ref, fmt.Errorf("node %d failed unclassified: %v", nd, e)
		}
		if e == nil && survivor < 0 {
			survivor, ref = nd, reps[nd]
		}
	}
	if survivor < 0 {
		return ref, fmt.Errorf("no survivors: %w", errs[0])
	}
	for nd, e := range errs {
		if e == nil && (reps[nd].Rollbacks != ref.Rollbacks || !slices.Equal(reps[nd].Evicted, ref.Evicted)) {
			return ref, fmt.Errorf(
				"survivors diverge: node %d rollbacks=%d evicted=%v vs node %d rollbacks=%d evicted=%v",
				survivor, ref.Rollbacks, ref.Evicted, nd, reps[nd].Rollbacks, reps[nd].Evicted)
		}
	}
	return ref, nil
}
