package recover_test

import (
	"errors"
	"reflect"
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/trace"
)

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatalf("pgas.New: %v", err)
	}
	return rt
}

// killChaos is a schedule with only the kill fault armed: evictions fire
// but the transient transport kinds stay silent, so every failure a test
// sees is the recovery machinery's.
func killChaos(seed uint64, rate float64) pgas.ChaosConfig {
	return pgas.ChaosConfig{Seed: seed, KillRate: rate, MaxAttempts: 8}
}

// superviseCC runs the Coalesced CC kernel under the recovery supervisor
// and returns the labels alongside the report.
func superviseCC(t *testing.T, g *graph.Graph, ccfg pgas.ChaosConfig, rcfg *recovery.Config) ([]int64, *recovery.Report, error) {
	t.Helper()
	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(ccfg)
	var labels []int64
	rep, err := recovery.Run(rt, rcfg, func(rt *pgas.Runtime, comm *collective.Comm) error {
		labels = cc.Coalesced(rt, comm, g, nil).Labels
		return nil
	})
	return labels, rep, err
}

// TestRecoverCCUnderKills: kill threads mid-run; the supervisor must
// remap, roll back, and still produce the exact sequential answer.
func TestRecoverCCUnderKills(t *testing.T) {
	g := graph.Hybrid(600, 1500, 0x5EED)
	want := seq.CC(g)
	recovered := false
	for seed := uint64(1); seed <= 8; seed++ {
		labels, rep, err := superviseCC(t, g, killChaos(seed, 0.0015), nil)
		if err != nil {
			// Too many threads died for the budget: acceptable only if it
			// failed loudly as an eviction.
			if pgas.Evicted(err) == nil {
				t.Fatalf("seed %d: failure not an eviction: %v", seed, err)
			}
			continue
		}
		if !seq.SamePartition(want, labels) {
			t.Fatalf("seed %d: labels diverged from oracle after %d rollbacks", seed, rep.Rollbacks)
		}
		if rep.Rollbacks > 0 {
			recovered = true
			if len(rep.Evicted) == 0 || rep.Chaos.Kills == 0 {
				t.Fatalf("seed %d: rollbacks=%d but evicted=%v kills=%d",
					seed, rep.Rollbacks, rep.Evicted, rep.Chaos.Kills)
			}
			if rep.Restores == 0 {
				t.Fatalf("seed %d: recovery round never restored the registered D snapshot", seed)
			}
			if rep.Runtime.NumThreads() >= 8 {
				t.Fatalf("seed %d: rollbacks happened but final geometry not degraded", seed)
			}
		}
	}
	if !recovered {
		t.Fatal("no seed produced a successful rollback recovery — kill rate too low or supervisor inert")
	}
}

// TestRecoverDeterminism: the whole recovery run — evicted sets, rollback
// count, checkpoint totals, final labels — must replay bit-for-bit under
// the same seed.
func TestRecoverDeterminism(t *testing.T) {
	g := graph.Hybrid(400, 1000, 0xD0D0)
	ccfg := killChaos(3, 0.0015)
	la, ra, ea := superviseCC(t, g, ccfg, nil)
	lb, rb, eb := superviseCC(t, g, ccfg, nil)
	if (ea == nil) != (eb == nil) {
		t.Fatalf("verdicts diverged: %v vs %v", ea, eb)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Fatal("labels diverged between identical supervised runs")
	}
	if ra.Rollbacks != rb.Rollbacks || !reflect.DeepEqual(ra.Evicted, rb.Evicted) {
		t.Fatalf("recovery paths diverged: rollbacks %d/%d evicted %v/%v",
			ra.Rollbacks, rb.Rollbacks, ra.Evicted, rb.Evicted)
	}
	if ra.Checkpoints != rb.Checkpoints || ra.CheckpointBytes != rb.CheckpointBytes ||
		ra.Restores != rb.Restores || ra.RestoredBytes != rb.RestoredBytes ||
		ra.ReexecSupersteps != rb.ReexecSupersteps || ra.Chaos != rb.Chaos {
		t.Fatalf("recovery accounting diverged:\n  A: %+v\n  B: %+v", ra, rb)
	}
}

// TestRecoverKillFree: with chaos disarmed the supervisor is transparent —
// one round, no rollbacks, oracle-exact answer, checkpoints committed.
func TestRecoverKillFree(t *testing.T) {
	g := graph.Hybrid(300, 700, 0xFACE)
	labels, rep, err := superviseCC(t, g, pgas.ChaosConfig{}, nil)
	if err != nil {
		t.Fatalf("kill-free supervised run failed: %v", err)
	}
	if rep.Rounds != 1 || rep.Rollbacks != 0 || len(rep.Evicted) != 0 {
		t.Fatalf("kill-free run took a recovery path: %+v", rep)
	}
	if !seq.SamePartition(seq.CC(g), labels) {
		t.Fatal("labels diverged from oracle")
	}
	if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 {
		t.Fatalf("no checkpoints committed: %+v", rep)
	}
	if rep.Restores != 0 {
		t.Fatalf("kill-free run restored state: %+v", rep)
	}
}

// TestRecoverBudgets: an eviction that would drop below MinThreads must
// fail loudly as an eviction, and the retired runtime must refuse reuse
// with a classified misuse error.
func TestRecoverBudgets(t *testing.T) {
	g := graph.Hybrid(300, 700, 0xB00)
	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(killChaos(1, 0.01))         // vicious: every attempt loses threads
	rcfg := &recovery.Config{MinThreads: 8} // any eviction is fatal
	rep, err := recovery.Run(rt, rcfg, func(rt *pgas.Runtime, comm *collective.Comm) error {
		cc.Coalesced(rt, comm, g, nil)
		return nil
	})
	if err == nil {
		t.Fatal("0.01 kill rate never evicted a thread")
	}
	if pgas.Evicted(err) == nil {
		t.Fatalf("budget exhaustion not reported as an eviction: %v", err)
	}
	if rep.Rollbacks != 0 {
		t.Fatalf("MinThreads=%d permitted a rollback: %+v", rcfg.MinThreads, rep)
	}
}

// TestRecoveryRoundGathersFromRestoredState: the CC kernels skip round 0's
// endpoint gather when D was just identity-filled (every endpoint is its
// own label). A recovery round must not: Register restores the last
// committed snapshot over the fresh fill, so round 0 of the retry starts
// from real labels and has to read them. cc.SV makes the difference
// countable — each of its rounds is one endpoint GetD, one grandparent
// GetDCombined, one SetDMin and one shortcut GetDCombined, and a
// GetDCombined traces as a GetD, so a run that gathered in every round
// shows GetD = 3 x SetDMin and a run that copied round 0's endpoint and
// grandparent gathers shows two fewer. The retry ends on the labels a
// from-scratch run on the survivor geometry produces.
func TestRecoveryRoundGathersFromRestoredState(t *testing.T) {
	const killSeed = 8
	g := graph.Hybrid(600, 1500, 0x5EED)
	run := func(rt *pgas.Runtime, comm *collective.Comm) (labels []int64, getD, setDMin int64) {
		col := trace.NewCollector(rt.NumThreads())
		comm.SetTracer(col)
		labels = cc.SV(rt, comm, g, nil).Labels
		return labels, col.Calls("GetD"), col.Calls("SetDMin")
	}

	rt := newRuntime(t, 4, 2)
	rt.ArmChaos(killChaos(killSeed, 0.0015))
	var labels []int64
	var getD, setDMin int64 // of the last attempt
	rep, err := recovery.Run(rt, nil, func(rt *pgas.Runtime, comm *collective.Comm) error {
		labels, getD, setDMin = run(rt, comm)
		return nil
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if rep.Rollbacks != 1 || rep.Chaos.Kills != 1 || rep.Restores != 1 {
		t.Fatalf("seed %d no longer yields one kill, one rollback, one restore: %d kills, %d rollbacks, %d restores",
			killSeed, rep.Chaos.Kills, rep.Rollbacks, rep.Restores)
	}
	if getD != 3*setDMin {
		t.Errorf("retry on restored D: %d GetD for %d SetDMin, want %d (a gather in every round, the first included)",
			getD, setDMin, 3*setDMin)
	}

	// From scratch on the same survivor geometry: identity fill, so round 0
	// copies.
	survivors, err := newRuntime(t, 4, 2).Evict(rep.Evicted)
	if err != nil {
		t.Fatal(err)
	}
	want, getD, setDMin := run(survivors, collective.NewComm(survivors))
	if getD != 3*setDMin-2 {
		t.Errorf("from scratch: %d GetD for %d SetDMin, want %d (round 0 copies)", getD, setDMin, 3*setDMin-2)
	}
	if !reflect.DeepEqual(labels, want) {
		t.Error("recovered labels differ from a from-scratch run on the survivors")
	}
}

// TestRecoverCountsARefusedEvictionOnce: when Evict refuses the dead set,
// the runtime that failed is the supervisor's final one, and its chaos
// counters enter the report once — not once as a retired runtime and
// again as the final one.
func TestRecoverCountsARefusedEvictionOnce(t *testing.T) {
	g := graph.Random(200, 600, 1)
	rt := newRuntime(t, 2, 2)
	rt.ArmChaos(pgas.DefaultChaos(3))
	rep, err := recovery.Run(rt, nil, func(rt *pgas.Runtime, comm *collective.Comm) error {
		cc.Coalesced(rt, comm, g, nil)
		return &pgas.EvictionError{Threads: []int{7}} // no thread 7 on 2 x 2: Evict refuses
	})
	if pgas.Evicted(err) == nil {
		t.Fatalf("refused eviction: err = %v, want the body's EvictionError", err)
	}
	if rep.Rollbacks != 0 || rep.Runtime != rt {
		t.Fatalf("refused eviction rolled back: %d rollbacks, runtime replaced %v", rep.Rollbacks, rep.Runtime != rt)
	}
	if got := rt.ChaosStats(); rep.Chaos != got || got.Ops == 0 {
		t.Fatalf("report chaos %+v, runtime's %+v: want the one runtime's counters, once", rep.Chaos, got)
	}
}

// TestRecoverScatteredLabels: cc.Coalesced keeps D in a layout that
// depends on n only, so a snapshot restores position for position into the
// array re-blocked over the survivors. With n = 1000, not a power of two
// (the layout's stretched case), a kill mid-run rolls back onto fewer
// threads, restores the committed D and still ends on exactly the oracle's
// labels.
func TestRecoverScatteredLabels(t *testing.T) {
	g := graph.Random(1000, 2500, 0x5CA7)
	want := seq.CC(g)
	restored := false
	for seed := uint64(1); seed <= 8; seed++ {
		labels, rep, err := superviseCC(t, g, killChaos(seed, 0.0015), nil)
		if err != nil {
			if pgas.Evicted(err) == nil {
				t.Fatalf("seed %d: failure not an eviction: %v", seed, err)
			}
			continue
		}
		if !reflect.DeepEqual(labels, want) {
			t.Fatalf("seed %d: labels differ from the oracle after %d rollbacks", seed, rep.Rollbacks)
		}
		if rep.Restores > 0 && rep.Runtime.NumThreads() < 8 {
			restored = true
		}
	}
	if !restored {
		t.Fatal("no seed restored a snapshot onto fewer threads")
	}
}

// TestRunLeavesCheckpointsDisarmed: the runtime a supervised run hands
// back is an ordinary one. A later region on it registers state and
// crosses barriers at exactly the cost it has on a fresh runtime, with no
// second rendezvous and no snapshot copy — whether the body completed or
// failed.
func TestRunLeavesCheckpointsDisarmed(t *testing.T) {
	region := func(rt *pgas.Runtime) float64 {
		pgas.Register(rt, "after", rt.NewSharedArray("after", 4096))
		return rt.Run(func(th *pgas.Thread) {
			th.Barrier()
			th.Barrier()
		}).SimNS
	}
	want := region(newRuntime(t, 2, 2))
	for _, bodyErr := range []error{nil, errors.New("body failed")} {
		rep, err := recovery.Run(newRuntime(t, 2, 2), nil, func(*pgas.Runtime, *collective.Comm) error { return bodyErr })
		if err != bodyErr {
			t.Fatalf("Run = %v, want the body's %v", err, bodyErr)
		}
		if got := region(rep.Runtime); got != want {
			t.Errorf("body error %v: region after Run took %.0f simulated ns, on a fresh runtime %.0f", bodyErr, got, want)
		}
	}
}
