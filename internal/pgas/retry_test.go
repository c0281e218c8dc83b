package pgas_test

import (
	"errors"
	"slices"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// TestRetryContract pins the one chaos retry contract both of its users
// share — GetBulk's retransmit and a collective's serve replay. Under a
// config that drops every transfer each gives up after exactly MaxAttempts
// attempts with a classified ErrTimeout naming its own op, having taken
// MaxAttempts-1 retries; and a SetDMin or SetD serve that succeeds after
// drops leaves the owner's elements exactly as one clean serve does — with
// no rollback, since a scatter faults only before it writes.
func TestRetryContract(t *testing.T) {
	const attempts = 4
	drops := pgas.ChaosConfig{Seed: 9, DropRate: 1, MaxAttempts: attempts, BackoffNS: 1e3}
	timeout := func(name string, err error, op string, thread int) {
		t.Helper()
		var e *pgas.Error
		if !errors.Is(err, pgas.ErrTimeout) || !errors.As(err, &e) {
			t.Fatalf("%s: err = %v, want a classified ErrTimeout", name, err)
		}
		if e.Op != op || e.Thread != thread {
			t.Fatalf("%s: error names op %q on thread %d, want %q on thread %d", name, e.Op, e.Thread, op, thread)
		}
	}

	// GetBulk: thread 0 reads thread 1's block on the other node.
	rt := ckptRT(t, 2, 1)
	rt.ArmChaos(drops)
	a := rt.NewSharedArray("A", 64)
	_, err := rt.RunE(func(th *pgas.Thread) {
		if th.ID == 0 {
			th.GetBulk(a, 32, make([]int64, 32), sim.CatComm)
		}
	})
	timeout("GetBulk", err, "GetBulk", 0)
	if got := rt.ChaosStats().Retries; got != attempts-1 {
		t.Fatalf("GetBulk: %d retries, want MaxAttempts-1 = %d", got, attempts-1)
	}

	// One-shot SetDMin: only thread 0 writes, into thread 1's block, so
	// only thread 1's serve pulls across the wire.
	rt = ckptRT(t, 2, 1)
	rt.ArmChaos(drops)
	comm := collective.NewComm(rt)
	d := rt.NewSharedArray("D", 64)
	d.Fill(1000)
	_, err = rt.RunE(func(th *pgas.Thread) {
		var idx, vals []int64
		if th.ID == 0 {
			idx, vals = []int64{40, 41, 50}, []int64{5, 6, 7}
		}
		comm.SetDMin(th, d, idx, vals, nil, nil)
	})
	timeout("SetDMin", err, "serve SetDMin", 1)
	if got := rt.ChaosStats().Retries; got != attempts-1 {
		t.Fatalf("SetDMin: %d retries, want MaxAttempts-1 = %d", got, attempts-1)
	}

	// A replayed scatter against a clean one: SetDMin
	// with every thread writing across both nodes, and SetD with threads 1
	// (node 0) and 2 (node 1) writing different values to the same indices
	// across both nodes, so the arbitrary write's winner must not move.
	const n = 96
	type scatter func(comm *collective.Comm, th *pgas.Thread, d *pgas.SharedArray)
	setDMin := func(comm *collective.Comm, th *pgas.Thread, d *pgas.SharedArray) {
		var idx, vals []int64
		for j := int64(1); j < n; j += 3 {
			idx = append(idx, (j*int64(th.ID+5))%n)
			vals = append(vals, j%7+int64(th.ID))
		}
		comm.SetDMin(th, d, idx, vals, nil, nil)
	}
	setD := func(comm *collective.Comm, th *pgas.Thread, d *pgas.SharedArray) {
		var idx, vals []int64
		if th.ID == 1 || th.ID == 2 {
			for j := int64(0); j < n; j += 2 {
				idx = append(idx, (j*7+1)%n)
				vals = append(vals, 1000*int64(th.ID)+j)
			}
		}
		comm.SetD(th, d, idx, vals, nil, nil)
	}
	run := func(op scatter, chaos *pgas.ChaosConfig) ([]int64, pgas.ChaosStats, error) {
		rt := ckptRT(t, 2, 2)
		if chaos != nil {
			rt.ArmChaos(*chaos)
		}
		comm := collective.NewComm(rt)
		d := rt.NewSharedArray("D", n)
		d.FillIdentity()
		_, err := rt.RunE(func(th *pgas.Thread) { op(comm, th, d) })
		return slices.Clone(d.Raw()), rt.ChaosStats(), err
	}
	for _, tc := range []struct {
		name string
		op   scatter
	}{{"SetDMin", setDMin}, {"SetD", setD}} {
		clean, _, err := run(tc.op, nil)
		if err != nil {
			t.Fatal(err)
		}
		replayed := false
		for seed := uint64(1); seed <= 64 && !replayed; seed++ {
			got, stats, err := run(tc.op, &pgas.ChaosConfig{Seed: seed, DropRate: 0.3, MaxAttempts: 32, BackoffNS: 1e3})
			if err != nil || stats.Retries == 0 {
				continue
			}
			replayed = true
			if !slices.Equal(got, clean) {
				t.Fatalf("%s seed %d: after %d replays left %v, one clean serve leaves %v",
					tc.name, seed, stats.Retries, got, clean)
			}
		}
		if !replayed {
			t.Fatalf("%s: no seed in 1..64 replayed a serve and succeeded", tc.name)
		}
	}
}
