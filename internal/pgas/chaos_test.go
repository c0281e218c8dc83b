package pgas

import (
	"errors"
	"fmt"
	"testing"

	"pgasgraph/internal/sim"
)

// TestBarrierClockInvariantUnderStalls: the property the simulated-time
// model hangs on. With stall-only chaos armed, every thread may be held
// back a modeled stall before arriving — and the post-barrier clocks must
// STILL all be equal, at exactly the pre-barrier maximum (per-thread work
// plus its injected stall) plus the modeled barrier cost. Delay faults
// move individual clocks; the barrier re-synchronizes them; nothing
// leaks or double-charges.
func TestBarrierClockInvariantUnderStalls(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rt := testRT(t, 2, 2)
			cfg := ChaosConfig{
				Seed:      seed,
				StallRate: 0.8,
				StallNS:   50e3,
			}
			rt.ArmChaos(cfg)
			s := rt.NumThreads()
			pre := make([]float64, s)
			post := make([]float64, s)
			_, err := rt.RunE(func(th *Thread) {
				// Uneven per-thread work so the pre-barrier max is owned
				// by a specific thread, varied by seed.
				work := float64((th.ID*7+int(seed)*13)%9) * 1e5
				th.Clock.Charge(sim.CatWork, work)
				pre[th.ID] = th.Clock.NS
				th.Barrier()
				post[th.ID] = th.Clock.NS
			})
			if err != nil {
				t.Fatal(err)
			}
			stats := rt.chaosThreadStats()
			expected := 0.0
			for i := 0; i < s; i++ {
				arrive := pre[i] + float64(stats[i].Stalls)*cfg.StallNS
				if arrive > expected {
					expected = arrive
				}
			}
			expected += rt.Model().Barrier(s)
			for i := 0; i < s; i++ {
				if post[i] != expected {
					t.Errorf("thread %d post-barrier clock %v, want %v (pre=%v stalls=%d)",
						i, post[i], expected, pre[i], stats[i].Stalls)
				}
			}
		})
	}
}

// TestBarrierRootCausePreserved: when one thread panics, peers unwind
// from their barrier waits — and the value reported by the runtime must
// be the originating thread's panic, never the generic "barrier broken"
// wrapper the waiters carry (the bug this pins: the wrapper used to bury
// the root cause).
func TestBarrierRootCausePreserved(t *testing.T) {
	t.Run("classified error becomes RunE error", func(t *testing.T) {
		rt := testRT(t, 2, 2)
		_, err := rt.RunE(func(th *Thread) {
			if th.ID == 2 {
				panic(Errorf(ErrTransport, th.ID, "TestOp", "synthetic failure"))
			}
			th.Barrier() // peers block here until poisoned
		})
		if err == nil {
			t.Fatal("RunE returned nil for a panicking thread")
		}
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("classification lost: %v", err)
		}
		var ce *Error
		if !errors.As(err, &ce) || ce.Thread != 2 {
			t.Fatalf("root cause does not name the originating thread: %v", err)
		}
	})

	t.Run("non-error panic value resurfaces verbatim", func(t *testing.T) {
		rt := testRT(t, 2, 2)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected the originating panic to propagate")
			}
			if s, ok := r.(string); !ok || s != "kernel bug 0xbeef" {
				t.Fatalf("root cause replaced by %v (%T), want the original string", r, r)
			}
		}()
		rt.Run(func(th *Thread) {
			if th.ID == 1 {
				panic("kernel bug 0xbeef")
			}
			th.Barrier()
		})
	})
}

// TestBulkRetryRecovers: drop faults on remote bulk transfers must be
// absorbed by retransmission — identical data, fault counters advanced —
// while an exhausted attempt budget must surface as a classified
// ErrTimeout, not a hang or a wrong answer.
func TestBulkRetryRecovers(t *testing.T) {
	rt := testRT(t, 2, 1)
	rt.ArmChaos(ChaosConfig{Seed: 42, DropRate: 0.4, MaxAttempts: 64, BackoffNS: 1e3, DelayNS: 1e3})
	a := rt.NewSharedArray("A", 512)
	for i := int64(0); i < 512; i++ {
		a.Raw()[i] = i * 3
	}
	_, err := rt.RunE(func(th *Thread) {
		lo, hi := a.ThreadCover(1 - th.ID) // read the REMOTE block
		dst := make([]int64, hi-lo)
		for round := 0; round < 16; round++ {
			th.GetBulk(a, lo, dst, sim.CatComm)
			for j, v := range dst {
				if v != (lo+int64(j))*3 {
					t.Errorf("thread %d round %d: dst[%d] = %d after retry, want %d",
						th.ID, round, j, v, (lo+int64(j))*3)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("retries did not absorb drops: %v", err)
	}
	if rt.ChaosStats().Drops == 0 {
		t.Fatal("no drops injected — rates never fired")
	}

	rt2 := testRT(t, 2, 1)
	rt2.ArmChaos(ChaosConfig{Seed: 42, DropRate: 1.0, MaxAttempts: 3, BackoffNS: 1e3})
	b := rt2.NewSharedArray("B", 512)
	_, err = rt2.RunE(func(th *Thread) {
		lo, hi := b.ThreadCover(1 - th.ID)
		dst := make([]int64, hi-lo)
		th.GetBulk(b, lo, dst, sim.CatComm)
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted budget not classified as ErrTimeout: %v", err)
	}
}

// TestChaosDisarmedIsFree: with chaos disarmed the runtime must take the
// untouched fast path — no fault counters, no retries, no stats.
func TestChaosDisarmedIsFree(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("A", 256)
	rt.Run(func(th *Thread) {
		dst := make([]int64, 8)
		th.GetBulk(a, 0, dst, sim.CatComm)
		th.Barrier()
	})
	if st := rt.ChaosStats(); st != (ChaosStats{}) {
		t.Fatalf("disarmed run recorded chaos activity: %+v", st)
	}
	if _, armed := rt.ChaosConfig(); armed {
		t.Fatal("chaos armed without ArmChaos")
	}
}

// chaosThreadStats returns a copy of every thread's injector statistics —
// the determinism tests compare these across same-seed runs.
func (rt *Runtime) chaosThreadStats() []ChaosStats {
	if rt.chaos == nil {
		return nil
	}
	out := make([]ChaosStats, len(rt.chaos.pts))
	for i := range rt.chaos.pts {
		out[i] = rt.chaos.pts[i].stats
	}
	return out
}
