// Transport conformance: the same harness battery and chaos soak, run over
// the multi-process wire backend. The wire transport is process-agnostic —
// each endpoint only talks through its unix sockets — so the suite hosts a
// p-node cluster as p runtime instances inside one test process and still
// exercises the full wire path: framing, coalescing, CRC, rendezvous,
// replica sync. cmd/pgasnode runs the identical battery with each node as a
// real OS process.
package verify

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/xrand"
)

// WireTimeout is the default per-operation wire deadline for conformance
// clusters: short enough that a wedged trial fails the soak's watchdog
// budget, long enough for the slowest sampled trial.
const WireTimeout = 20 * time.Second

// RunWireCluster assembles a fresh wire cluster for mc's geometry and runs
// host as every node, one goroutine per node, each with its own transport
// endpoint, runtime, and collective state. It returns one error slot per
// node (panics converted to errors, classification preserved). The cluster
// is torn down afterwards; wire transports are single-region-failure —
// poisoned forever by one abort — so every trial gets a fresh cluster.
func RunWireCluster(t *Trial, ccfg *pgas.ChaosConfig, timeout time.Duration,
	host func(node int, rt *pgas.Runtime, comm *collective.Comm) error) []error {
	nodes := t.Machine.Nodes
	errs := make([]error, nodes)
	dir, err := os.MkdirTemp("", "pgaswire")
	if err != nil {
		for nd := range errs {
			errs[nd] = fmt.Errorf("wire cluster dir: %v", err)
		}
		return errs
	}
	defer os.RemoveAll(dir)

	var wg sync.WaitGroup
	for nd := 0; nd < nodes; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			errs[nd] = runWireNode(t, ccfg, dir, nd, timeout, host)
		}(nd)
	}
	wg.Wait()
	return errs
}

func runWireNode(t *Trial, ccfg *pgas.ChaosConfig, dir string, nd int, timeout time.Duration,
	host func(node int, rt *pgas.Runtime, comm *collective.Comm) error) (err error) {
	defer recoverCheck(&err)
	tr, err := wiretransport.Connect(wiretransport.Config{
		Nodes:          t.Machine.Nodes,
		Node:           nd,
		ThreadsPerNode: t.Machine.ThreadsPerNode,
		Dir:            dir,
		Timeout:        timeout,
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	rt, err := pgas.NewOnTransport(t.Machine, tr)
	if err != nil {
		return fmt.Errorf("machine config: %v", err)
	}
	if ccfg != nil {
		rt.ArmChaos(*ccfg)
	}
	comm := collective.NewComm(rt)
	return host(nd, rt, comm)
}

// WireChecks returns the battery subset that is well-defined on a wire
// cluster. Excluded are the racy-by-design kernels (their per-thread op
// stream is scheduling-dependent), the kernels that read raw remote state
// host-side between regions (listrank/cgm), and the slow small-graph
// baselines; everything here must pass identically on both backends.
func WireChecks() []Check {
	wire := map[string]bool{
		"collective/getd-law":       true,
		"collective/setd-roundtrip": true,
		"collective/setdmin-law":    true,
		"collective/plan-reuse":     true,
		"cc/coalesced":              true,
		"cc/sv":                     true,
		"cc/fastsv":                 true,
		"cc/lt-ers":                 true,
		"bfs/coalesced":             true,
	}
	var out []Check
	for _, c := range Checks() {
		if wire[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// RunWireCheck runs one battery check on every node of a wire cluster over
// trial t and returns the first failure (tagged with its node). The check's
// own host-side comparisons run on every node against that node's replica,
// so a divergent replica fails exactly like a wrong answer.
func RunWireCheck(c Check, t *Trial, timeout time.Duration) error {
	errs := RunWireCluster(t, nil, timeout, func(node int, rt *pgas.Runtime, comm *collective.Comm) error {
		return c.Run(t, rt, comm)
	})
	return firstNodeError(errs)
}

// RunWireCheckChaos is RunWireCheck with the chaos layer armed on every
// node's runtime under one shared schedule. It returns the fault counters
// summed across nodes; per-thread draw streams are seeded identically on
// both backends, so on a recovered trial the sum must equal the in-process
// run's counters exactly.
func RunWireCheckChaos(c Check, t *Trial, ccfg pgas.ChaosConfig, timeout time.Duration) (pgas.ChaosStats, error) {
	var mu sync.Mutex
	var stats pgas.ChaosStats
	errs := RunWireCluster(t, &ccfg, timeout, func(node int, rt *pgas.Runtime, comm *collective.Comm) error {
		err := c.Run(t, rt, comm)
		mu.Lock()
		s := rt.ChaosStats()
		stats.Add(s)
		mu.Unlock()
		return err
	})
	return stats, firstNodeError(errs)
}

// RunWireKillRecover runs one supervised recovery trial on a hosted wire
// cluster: every node drives the eviction-recovery supervisor around the
// check body with a kill-capable chaos schedule armed. A killed thread
// takes its whole node down (wire eviction is node-granular): the dying
// node proposes its own seat, participates in the membership agreement so
// the survivors commit deterministically, then fails its endpoint; the
// survivors roll back to the last committed checkpoint, remap onto the
// shrunk geometry, and re-execute. Returns each node's recovery report and
// error slot.
func RunWireKillRecover(c Check, t *Trial, ccfg pgas.ChaosConfig, rcfg *recovery.Config, timeout time.Duration) ([]*recovery.Report, []error) {
	reps := make([]*recovery.Report, t.Machine.Nodes)
	errs := RunWireCluster(t, nil, timeout, func(node int, rt *pgas.Runtime, comm *collective.Comm) error {
		rt.ArmChaos(ccfg)
		rep, err := recovery.Run(rt, rcfg, func(rt *pgas.Runtime, comm *collective.Comm) error {
			return c.Run(t, rt, comm)
		})
		reps[node] = rep
		return err
	})
	return reps, errs
}

// firstNodeError picks the reported failure deterministically: the lowest
// node with a non-transport error (the node that originated the region
// failure), else the lowest node error of any class. Peer nodes of a failed
// region unwind with secondary ErrTransport aborts; reporting the
// originating class keeps wire outcomes comparable with in-process ones.
func firstNodeError(errs []error) error {
	for nd, err := range errs {
		if err != nil && !errors.Is(err, pgas.ErrTransport) {
			return fmt.Errorf("node %d: %w", nd, err)
		}
	}
	for nd, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", nd, err)
		}
	}
	return nil
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
	// Timeout bounds each wire operation. Defaults to WireTimeout.
	Timeout time.Duration
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
	if cfg.Timeout <= 0 {
		cfg.Timeout = WireTimeout
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 90 * time.Second
	}
	battery := WireChecks()
	rep := &WireReport{}

	for round := 0; round < cfg.Rounds; round++ {
		rng := xrand.New(cfg.Seed).Split(0x31e70 ^ uint64(round))
		t := wireGeometry(SampleTrial(rng, round, cfg.MaxN), round)
		for _, c := range battery {
			if !c.Applicable(t) {
				continue
			}
			rep.CleanRuns++
			err, hung := underWatchdog(cfg.Watchdog, func() error {
				return RunWireCheck(c, t, cfg.Timeout)
			})
			if hung {
				rep.Hangs++
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("clean %d %s: hang after %v", round, c.Name, cfg.Watchdog))
				continue
			}
			if err != nil {
				rep.CleanFailures++
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("clean %d %s: %v", round, c.Name, err))
			}
			if cfg.Log != nil {
				status := "ok"
				if err != nil {
					status = "FAIL: " + err.Error()
				}
				fmt.Fprintf(cfg.Log, "wire clean %d: %s %dx%d %s\n",
					round, c.Name, t.Machine.Nodes, t.Machine.ThreadsPerNode, status)
			}
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

		inStats, inErr := RunCheckChaos(c, t, ccfg)
		var wireStats pgas.ChaosStats
		var wireErr error
		err, hung := underWatchdog(cfg.Watchdog, func() error {
			var e error
			wireStats, e = RunWireCheckChaos(c, t, ccfg, cfg.Timeout)
			return e
		})
		if hung {
			rep.Hangs++
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("chaos %d %s: wire hang after %v", round, c.Name, cfg.Watchdog))
			continue
		}
		wireErr = err

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
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "wire chaos %d: %s %dx%d %s\n",
				round, c.Name, t.Machine.Nodes, t.Machine.ThreadsPerNode, verdict)
		}
	}

	// Kill rotation: chaos schedules with permanent kills enabled, every
	// node under the recovery supervisor. MinThreads 1 because wire
	// eviction is node-granular — losing one node of a small hosted
	// cluster can halve the geometry.
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001B3
		h ^= h >> 29
	}
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
		rcfg := &recovery.Config{MinThreads: 1}
		var reps []*recovery.Report
		var errsByNode []error
		_, hung := underWatchdog(cfg.Watchdog, func() error {
			reps, errsByNode = RunWireKillRecover(c, t, ccfg, rcfg, cfg.Timeout)
			return nil
		})
		mix(uint64(round))
		for _, ch := range c.Name {
			mix(uint64(ch))
		}
		if hung {
			rep.Hangs++
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("kill %d %s: hang after %v", round, c.Name, cfg.Watchdog))
			mix(uint64(ChaosHang))
			continue
		}
		outcome, detail := wireKillOutcome(reps, errsByNode)
		mix(uint64(outcome))
		switch outcome {
		case ChaosRecovered:
			rep.KillRecovered++
		case ChaosRecoveredByRollback:
			rep.KillRecovered++
			// Every survivor agreed on the same rollback history; mix it.
			for nd, e := range errsByNode {
				if e == nil {
					rep.KillRollbacks += reps[nd].Rollbacks
					mix(uint64(reps[nd].Rollbacks))
					for _, id := range reps[nd].Evicted {
						mix(uint64(id) + 1)
					}
					break
				}
			}
		case ChaosClassified:
			rep.KillClassified++
		default:
			rep.KillFailures++
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("kill %d %s: %s: %s", round, c.Name, outcome, detail))
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "wire kill %d: %s %dx%d kill=%g %s %s\n",
				round, c.Name, t.Machine.Nodes, t.Machine.ThreadsPerNode,
				ccfg.KillRate, outcome, detail)
		}
	}
	rep.KillDigest = h
	return rep
}

// wireKillOutcome folds one kill trial's per-node results onto the chaos
// outcome ladder. The survivors are authoritative: the lowest node that
// completed names the outcome (rollbacks make it recovered-by-rollback),
// and every other survivor must agree on the rollback history — the
// membership agreement makes the evicted set exact, so disagreement is a
// determinism bug, not noise. A trial with no survivors is classified when
// every node failed loudly (budget exhausted, self-evicted, or unwound by
// a peer's abort) and a wrong answer otherwise.
func wireKillOutcome(reps []*recovery.Report, errs []error) (ChaosOutcome, string) {
	survivor := -1
	for nd, e := range errs {
		if e == nil {
			survivor = nd
			break
		}
	}
	if survivor < 0 {
		for nd, e := range errs {
			if !classifiedErr(e) {
				return ChaosWrongAnswer, fmt.Sprintf("node %d failed unclassified: %v", nd, e)
			}
		}
		return ChaosClassified, fmt.Sprintf("no survivors: %v", errs[0])
	}
	ref := reps[survivor]
	for nd, e := range errs {
		if nd == survivor || e != nil {
			if e != nil && !classifiedErr(e) {
				return ChaosWrongAnswer, fmt.Sprintf("node %d failed unclassified: %v", nd, e)
			}
			continue
		}
		if reps[nd].Rollbacks != ref.Rollbacks || !slices.Equal(reps[nd].Evicted, ref.Evicted) {
			return ChaosWrongAnswer, fmt.Sprintf(
				"survivors diverge: node %d rollbacks=%d evicted=%v vs node %d rollbacks=%d evicted=%v",
				survivor, ref.Rollbacks, ref.Evicted, nd, reps[nd].Rollbacks, reps[nd].Evicted)
		}
	}
	if ref.Rollbacks > 0 {
		return ChaosRecoveredByRollback, fmt.Sprintf("rollbacks=%d evicted=%v", ref.Rollbacks, ref.Evicted)
	}
	return ChaosRecovered, "no kills fired"
}

// underWatchdog runs f, reporting a hang when it outlives the budget.
func underWatchdog(d time.Duration, f func() error) (error, bool) {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err, false
	case <-time.After(d):
		return nil, true
	}
}

func classifiedErr(err error) bool {
	return errors.Is(err, pgas.ErrTransport) || errors.Is(err, pgas.ErrTimeout) ||
		errors.Is(err, pgas.ErrCorrupt) || errors.Is(err, pgas.ErrEvicted)
}
