package pgas

import (
	"errors"
	"testing"

	"pgasgraph/internal/sim"
)

// TestBulkRetransmitChargeInvariance pins the exact accounting of GetBulk's
// retransmit loop through chargeTransfer: every attempt recharges the full
// wire cost (message + request-leg latency for the read's round trip),
// every retry is preceded by exactly one exponential backoff, and the logical RemoteOps
// count never inflates. The expected clock is reconstructed charge by
// charge in the same order the runtime issues them, so the comparison is
// bit-exact — any drift in the shared helper (double-charging, a lost
// NetLatency leg, reordered backoff) fails loudly.
func TestBulkRetransmitChargeInvariance(t *testing.T) {
	const (
		k       = 8
		backoff = 750.0
	)
	run := func(t *testing.T, seed uint64) int64 {
		rt := testRT(t, 2, 1)
		rt.ArmChaos(ChaosConfig{
			Seed:        seed,
			DropRate:    0.5, // drops charge nothing themselves: analytic clock stays closed-form
			MaxAttempts: 64,
			BackoffNS:   backoff,
		})
		a := rt.NewSharedArray("inv", 16)
		start := int64(8) // node 1's block: remote for thread 0
		if a.ownerNode(start) != 1 {
			t.Fatalf("start %d owned by node %d, want 1", start, a.ownerNode(start))
		}

		var ns float64
		var msgs, bytes, rops int64
		buf := make([]int64, k)
		if _, err := rt.RunE(func(th *Thread) {
			if th.ID != 0 {
				return
			}
			th.GetBulk(a, start, buf, sim.CatComm)
			ns, msgs, bytes, rops = th.Clock.NS, th.Clock.Messages, th.Clock.Bytes, th.Clock.RemoteOps
		}); err != nil {
			t.Fatal(err)
		}

		stats := rt.chaosThreadStats()[0]
		retries := stats.Retries
		if stats.Drops != retries {
			t.Fatalf("drops=%d retries=%d: with only drops armed they must match", stats.Drops, retries)
		}

		// Reconstruct the clock in issue order: initial transfer, then per
		// retry one backoff (doubling from attempt 1) and one retransmit.
		transfer := rt.model.Message(k*sim.ElemBytes, rt.cfg.ThreadsPerNode) + rt.cfg.NetLatency // a read is a round trip
		want := transfer
		for r := int64(1); r <= retries; r++ {
			want += backoff * float64(int64(1)<<(r-1))
			want += transfer
		}
		if ns != want {
			t.Errorf("charged %v ns, want %v (retries=%d)", ns, want, retries)
		}
		if wantMsgs := 1 + retries; msgs != wantMsgs {
			t.Errorf("messages=%d, want %d", msgs, wantMsgs)
		}
		if wantBytes := (1 + retries) * k * sim.ElemBytes; bytes != wantBytes {
			t.Errorf("bytes=%d, want %d", bytes, wantBytes)
		}
		if rops != 1 {
			t.Errorf("RemoteOps=%d, want 1: retransmits repeat a logical op, not add one", rops)
		}
		return retries
	}
	// The invariant must hold at every sampled retry count, and the seed
	// sweep must actually exercise retransmits (a 0.5 drop rate passes a
	// lone first draw on many seeds).
	t.Run("GetBulk", func(t *testing.T) {
		var total int64
		for seed := uint64(1); seed <= 20; seed++ {
			total += run(t, seed)
		}
		if total == 0 {
			t.Fatal("no seed in the sweep injected a drop; the retransmit path went untested")
		}
	})
}

// TestBulkRetransmitBudgetExhaustion: DropRate 1 can never deliver, so the
// attempt budget must run out as a classified ErrTimeout through the
// barrier-poisoning path, with exactly MaxAttempts-1 retries charged (the
// final failing attempt is not a retry).
func TestBulkRetransmitBudgetExhaustion(t *testing.T) {
	rt := testRT(t, 2, 1)
	rt.ArmChaos(ChaosConfig{Seed: 7, DropRate: 1, MaxAttempts: 3, BackoffNS: 100})
	a := rt.NewSharedArray("exh", 16)
	dst := make([]int64, 4)
	_, err := rt.RunE(func(th *Thread) {
		if th.ID == 0 {
			th.GetBulk(a, 8, dst, sim.CatComm)
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted budget returned %v, want ErrTimeout", err)
	}
	if got := rt.chaosThreadStats()[0].Retries; got != 2 {
		t.Fatalf("retries=%d, want MaxAttempts-1=2", got)
	}
}

// TestChaosBackoffClampBoundary pins the doubling clamp at
// chaosBackoffShiftCap: attempt 17 is the first capped attempt, and every
// attempt beyond it charges exactly the same — while attempt 16 still sits
// one doubling below. Also pins the low clamp: attempt 0 (and below) must
// charge the attempt-1 amount rather than shift negatively.
func TestChaosBackoffClampBoundary(t *testing.T) {
	const backoff = 500.0
	rt := testRT(t, 1, 1)
	rt.ArmChaos(ChaosConfig{Seed: 1, MaxAttempts: 1, BackoffNS: backoff})
	charge := map[int]float64{}
	if _, err := rt.RunE(func(th *Thread) {
		for _, attempt := range []int{-1, 0, 1, 16, 17, 18, 1000} {
			pre := th.Clock.NS
			th.chaosBackoff(attempt)
			charge[attempt] = th.Clock.NS - pre
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := backoff * float64(int64(1)<<(chaosBackoffShiftCap-1)); charge[16] != want {
		t.Errorf("attempt 16 charged %v, want %v (one doubling below the cap)", charge[16], want)
	}
	capped := backoff * float64(int64(1)<<chaosBackoffShiftCap)
	for _, attempt := range []int{17, 18, 1000} {
		if charge[attempt] != capped {
			t.Errorf("attempt %d charged %v, want capped %v", attempt, charge[attempt], capped)
		}
	}
	if charge[16] >= charge[17] {
		t.Errorf("cap boundary flat too early: attempt 16 (%v) >= attempt 17 (%v)", charge[16], charge[17])
	}
	for _, attempt := range []int{-1, 0} {
		if charge[attempt] != backoff {
			t.Errorf("attempt %d charged %v, want base %v (negative shift clamps to 0)",
				attempt, charge[attempt], backoff)
		}
	}
}
