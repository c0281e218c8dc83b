package pgas_test

import (
	"reflect"
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

func ckptRT(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestCheckpointCostExact: the property the checkpoint design promises —
// steady-state cost is exactly one modeled memcpy of the thread's block
// per checkpoint plus one extra barrier for the commit rendezvous. A
// region that does nothing but K checkpointed barriers must have makespan
// K * (2*Barrier(s) + SeqScan(maxBlockWords)), to the bit.
func TestCheckpointCostExact(t *testing.T) {
	for _, geo := range [][2]int{{1, 4}, {2, 3}, {4, 2}} {
		rt := ckptRT(t, geo[0], geo[1])
		const n, K = 1000, 7
		d := rt.NewSharedArray("D", n)
		ck := rt.ArmCheckpoints()
		pgas.Register(rt, "test.D", d)

		var maxWords int64
		for id := 0; id < rt.NumThreads(); id++ {
			if lo, hi := d.ThreadCover(id); hi-lo > maxWords {
				maxWords = hi - lo
			}
		}
		res := rt.Run(func(th *pgas.Thread) {
			for k := 0; k < K; k++ {
				th.Barrier()
			}
		})
		m := rt.Model()
		want := K * (2*m.Barrier(rt.NumThreads()) + m.SeqScan(maxWords))
		if res.SimNS != want {
			t.Errorf("geometry %dx%d: makespan %v, want exactly %v", geo[0], geo[1], res.SimNS, want)
		}
		if ckpts, bytes, _, _ := ck.Stats(); ckpts != K || bytes != K*n*sim.ElemBytes {
			t.Errorf("geometry %dx%d: %d checkpoints of %d bytes committed, want %d of %d",
				geo[0], geo[1], ckpts, bytes, K, K*n*sim.ElemBytes)
		}
		// Checkpoint traffic is node-local: it must never inflate the
		// transfer counters.
		if res.Messages != 0 || res.Bytes != 0 || res.RemoteOps != 0 {
			t.Errorf("geometry %dx%d: checkpointing touched transfer counters: %+v", geo[0], geo[1], res)
		}
	}
}

// TestCheckpointCadence: an armed runtime with no registered array keeps
// every barrier on the single-rendezvous fast path; once an array is
// registered, every barrier extends into a checkpoint.
func TestCheckpointCadence(t *testing.T) {
	rt := ckptRT(t, 2, 2)
	const n, K = 600, 12
	d := rt.NewSharedArray("D", n)
	ck := rt.ArmCheckpoints()
	var maxWords int64
	for id := 0; id < rt.NumThreads(); id++ {
		if lo, hi := d.ThreadCover(id); hi-lo > maxWords {
			maxWords = hi - lo
		}
	}
	barriers := func(th *pgas.Thread) {
		for k := 0; k < K; k++ {
			th.Barrier()
		}
	}
	m := rt.Model()
	if res := rt.Run(barriers); res.SimNS != K*m.Barrier(rt.NumThreads()) {
		t.Errorf("unregistered: makespan %v, want exactly %v", res.SimNS, K*m.Barrier(rt.NumThreads()))
	}
	if got, _, _, _ := ck.Stats(); got != 0 {
		t.Errorf("unregistered: %d checkpoints, want 0", got)
	}
	pgas.Register(rt, "test.D", d)
	want := K * (2*m.Barrier(rt.NumThreads()) + m.SeqScan(maxWords))
	if res := rt.Run(barriers); res.SimNS != want {
		t.Errorf("registered: makespan %v, want exactly %v", res.SimNS, want)
	}
	if got, _, _, _ := ck.Stats(); got != K {
		t.Errorf("registered: %d checkpoints, want %d", got, K)
	}
}

// TestCheckpointTransparency: with chaos disarmed, arming checkpoints
// must not change anything observable except the checkpoint accounting
// itself — labels bit-identical, same iteration count, same transfer
// counters. This is what makes "checkpointing on by default" safe.
func TestCheckpointTransparency(t *testing.T) {
	g := graph.Hybrid(500, 1200, 0xABCD)
	var ckpts uint64
	run := func(arm bool) *cc.Result {
		rt := ckptRT(t, 3, 2)
		if !arm {
			return cc.Coalesced(rt, collective.NewComm(rt), g, nil)
		}
		ck := rt.ArmCheckpoints()
		res := cc.Coalesced(rt, collective.NewComm(rt), g, nil)
		ckpts, _, _, _ = ck.Stats()
		return res
	}
	plain, armed := run(false), run(true)
	if !reflect.DeepEqual(plain.Labels, armed.Labels) {
		t.Fatal("labels changed when checkpointing was armed")
	}
	if plain.Iterations != armed.Iterations {
		t.Fatalf("iterations changed: %d vs %d", plain.Iterations, armed.Iterations)
	}
	if plain.Run.Messages != armed.Run.Messages ||
		plain.Run.Bytes != armed.Run.Bytes ||
		plain.Run.RemoteOps != armed.Run.RemoteOps {
		t.Fatalf("transfer counters changed:\n  plain: msgs=%d bytes=%d remote=%d\n  armed: msgs=%d bytes=%d remote=%d",
			plain.Run.Messages, plain.Run.Bytes, plain.Run.RemoteOps,
			armed.Run.Messages, armed.Run.Bytes, armed.Run.RemoteOps)
	}
	if ckpts == 0 {
		t.Fatal("armed run committed no checkpoints")
	}
	if armed.Run.SimNS <= plain.Run.SimNS {
		t.Fatal("armed run not charged for its checkpoints")
	}
	if !seq.SamePartition(seq.CC(g), armed.Labels) {
		t.Fatal("armed labels diverged from oracle")
	}
}

// TestEvictRebindRestore: the full recovery mechanics at the pgas layer —
// commit a snapshot, mutate past it, evict a thread, rebind, and confirm
// the re-registered array on the remapped runtime holds the committed
// snapshot (not the later writes), re-blocked over the survivors.
func TestEvictRebindRestore(t *testing.T) {
	rt := ckptRT(t, 2, 3)
	const n = 500
	d := rt.NewSharedArray("D", n)
	d.FillIdentity()
	ck := rt.ArmCheckpoints()
	pgas.Register(rt, "test.D", d)

	// Superstep 1 doubles every element and checkpoints; the post-barrier
	// writes (value -7) must NOT be in the committed snapshot.
	rt.Run(func(th *pgas.Thread) {
		lo, hi := d.ThreadCover(th.ID)
		for i := lo; i < hi; i++ {
			d.StoreRaw(i, 2*i)
		}
		th.Barrier()
		for i := lo; i < hi; i++ {
			d.StoreRaw(i, -7)
		}
	})
	if got, _, _, _ := ck.Stats(); got != 1 {
		t.Fatalf("committed %d checkpoints, want 1", got)
	}

	nrt, err := rt.Evict([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if nrt.NumThreads() != 5 {
		t.Fatalf("survivor count %d, want 5", nrt.NumThreads())
	}
	if !rt.Retired() {
		t.Fatal("evicted runtime not retired")
	}
	if _, err := rt.RunE(func(th *pgas.Thread) {}); err == nil {
		t.Fatal("retired runtime accepted a region")
	}

	ck.Rebind(nrt)
	nd := nrt.NewSharedArray("D", n)
	nd.FillIdentity()
	pgas.Register(nrt, "test.D", nd) // restore-on-register
	raw := nd.Raw()
	for i := int64(0); i < n; i++ {
		if raw[i] != 2*i {
			t.Fatalf("restored D[%d] = %d, want %d (committed snapshot)", i, raw[i], 2*i)
		}
	}
	_, _, restores, restoredBytes := ck.Stats()
	if restores != 1 || restoredBytes != n*sim.ElemBytes {
		t.Fatalf("restore accounting: restores=%d bytes=%d", restores, restoredBytes)
	}

	// The remapped runtime keeps checkpointing: the next committed
	// snapshot supersedes the restored one.
	nrt.Run(func(th *pgas.Thread) {
		lo, hi := nd.ThreadCover(th.ID)
		for i := lo; i < hi; i++ {
			nd.StoreRaw(i, 3*i)
		}
		th.Barrier()
	})
	if got, _, _, _ := ck.Stats(); got != 2 {
		t.Fatalf("committed %d checkpoints after recovery, want 2", got)
	}
}

// TestEvictValidation: bad eviction requests are rejected, survivors are
// renumbered densely, and evicting everyone is refused.
func TestEvictValidation(t *testing.T) {
	rt := ckptRT(t, 2, 2)
	if _, err := rt.Evict([]int{7}); err == nil {
		t.Error("out-of-range eviction accepted")
	}
	if _, err := rt.Evict([]int{1, 1}); err == nil {
		t.Error("duplicate eviction accepted")
	}
	if _, err := rt.Evict([]int{0, 1, 2, 3}); err == nil {
		t.Error("evicting every thread accepted")
	}
	nrt, err := rt.Evict([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if nrt.NumThreads() != 2 {
		t.Fatalf("survivors %d, want 2", nrt.NumThreads())
	}
	if got := nrt.EvictedThreads(); len(got) != 2 {
		t.Fatalf("EvictedThreads() = %v", got)
	}
	nrt.Run(func(th *pgas.Thread) {
		if th.ID < 0 || th.ID >= 2 {
			t.Errorf("survivor id %d not dense", th.ID)
		}
	})
}
