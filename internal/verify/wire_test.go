package verify

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/xrand"
)

// wireTrial samples a matrix point and forces a genuinely multi-process
// geometry onto it.
func wireTrial(seed uint64, round int, maxN int64, nodes, tpn int) *Trial {
	rng := xrand.New(seed).Split(0x31e7 ^ uint64(round))
	return sampleTrial(rng, round, maxN).withMachine(nodes, tpn)
}

// TestWireBattery: every wire-eligible battery check passes on a wire
// cluster — the oracle comparisons run on every node against that node's
// replica, so this pins both answers and replica synchronization.
func TestWireBattery(t *testing.T) {
	geoms := [][2]int{{2, 2}, {3, 1}}
	for round, geom := range geoms {
		tr := wireTrial(0x9a7, round, 200, geom[0], geom[1])
		for _, c := range battery(wireRow, nil) {
			if !c.Applicable(tr) {
				continue
			}
			if err := runCheck(c, tr, Env{Wire: true}).Err; err != nil {
				t.Fatalf("wire %dx%d %s: %v", geom[0], geom[1], c.Name, err)
			}
		}
	}
}

// TestWireKernelIdentity: BFS, CC (both schemes), and MST computed on a
// wire cluster are identical to the in-process run on the same graph and
// seed — distances and labels element-for-element on every node, the MST
// forest as the union of the nodes' chosen edges — and so is each run's
// simulated time on every node: the cost model charges below the
// transport seam, so the backend must not be visible in it.
func TestWireKernelIdentity(t *testing.T) {
	tr := wireTrial(0x51de, 3, 300, 2, 2)
	rt, err := pgas.New(tr.Machine)
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	o := tr.Opts
	ccO := &cc.Options{Col: &o, Compact: tr.Compact}
	wantCC := cc.Coalesced(rt, comm, tr.Graph, ccO)
	wantSV := cc.SV(rt, comm, tr.Graph, ccO)
	wantBFS := bfs.Coalesced(rt, comm, tr.Graph, tr.Src, &o)
	wantMST := mst.Coalesced(rt, comm, tr.WGraph, &mst.Options{Col: &o, Compact: tr.Compact})
	same := func(kernel string, got, want []int64, gotNS, wantNS float64) error {
		if !eq64(got, want) {
			return fmt.Errorf("%s answer diverges from in-process", kernel)
		}
		if gotNS != wantNS {
			return fmt.Errorf("%s simulated time %v ns on the wire, %v ns in-process", kernel, gotNS, wantNS)
		}
		return nil
	}

	type nodeOut struct {
		mstEdges []int64
		mstW     uint64
	}
	outs := make([]nodeOut, tr.Machine.Nodes)
	identity := Check{Name: "synthetic/kernel-identity", Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
		o := tr.Opts
		ccO := &cc.Options{Col: &o, Compact: tr.Compact}
		c := cc.Coalesced(rt, comm, tr.Graph, ccO)
		if err := same("cc/coalesced", c.Labels, wantCC.Labels, c.Run.SimNS, wantCC.Run.SimNS); err != nil {
			return err
		}
		sv := cc.SV(rt, comm, tr.Graph, ccO)
		if err := same("cc/sv", sv.Labels, wantSV.Labels, sv.Run.SimNS, wantSV.Run.SimNS); err != nil {
			return err
		}
		b := bfs.Coalesced(rt, comm, tr.Graph, tr.Src, &o)
		if err := same("bfs/coalesced", b.Dist, wantBFS.Dist, b.Run.SimNS, wantBFS.Run.SimNS); err != nil {
			return err
		}
		// The forest is compared as a union below; each node's clock here.
		m := mst.Coalesced(rt, comm, tr.WGraph, &mst.Options{Col: &o, Compact: tr.Compact})
		outs[rt.LocalNode()] = nodeOut{mstEdges: m.Edges, mstW: m.Weight}
		return same("mst/coalesced", nil, nil, m.Run.SimNS, wantMST.Run.SimNS)
	}}
	if err := runCheck(identity, tr, Env{Wire: true}).Err; err != nil {
		t.Fatal(err)
	}

	// The MST result is assembled host-side from per-thread choices, so on
	// a wire cluster each node holds its local threads' share; the union
	// across nodes must be the in-process forest.
	var union []int64
	for _, out := range outs {
		union = append(union, out.mstEdges...)
	}
	want := append([]int64(nil), wantMST.Edges...)
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !eq64(union, want) {
		t.Fatalf("mst edge union diverges: %d edges on wire, %d in-process", len(union), len(want))
	}
	var unionW uint64
	for _, out := range outs {
		unionW += out.mstW
	}
	if unionW != wantMST.Weight {
		t.Fatalf("mst weight diverges: wire %d, in-process %d", unionW, wantMST.Weight)
	}
}

func eq64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireKillRecovery: a chaos kill on a 3-node wire cluster evicts the
// whole node that hosted the dead thread; the survivors agree on the dead
// set, roll back to the last committed checkpoint, remap, and complete
// with the correct answer (the check's own oracle runs on the degraded
// geometry). The dying node self-evicts. Re-running the same seed must
// reproduce the identical rollback history on every survivor.
func TestWireKillRecovery(t *testing.T) {
	c := batteryRow(t, "cc/coalesced")
	if !c.Wire {
		t.Fatal("cc/coalesced missing from the wire battery")
	}
	run := func(seed uint64) ([]*recovery.Report, []error, *Trial) {
		tr := wireTrial(seed, 1, 200, 3, 1)
		ccfg := pgas.ChaosConfig{Seed: seed, KillRate: 0.05}
		ran := runCheck(c, tr, Env{Chaos: &ccfg, Recover: &recovery.Config{MinThreads: 1}, Wire: true})
		return ran.Reports, ran.Errs, tr
	}
	// Scan a few seeds for the interesting shape: at least one survivor
	// completing after a rollback. High kill rates can also take every
	// node down (a legitimate classified outcome), so not every seed
	// qualifies.
	for seed := uint64(1); seed <= 24; seed++ {
		reps, errs, _ := run(seed)
		survivor := -1
		for nd, e := range errs {
			if e == nil && reps[nd].Rollbacks > 0 {
				survivor = nd
				break
			}
		}
		if survivor < 0 {
			continue
		}
		ref := reps[survivor]
		if len(ref.Evicted) == 0 {
			t.Fatalf("seed %d: rollback with empty evicted set", seed)
		}
		// Some node must have been taken out of the cluster: either it
		// self-evicted, or it failed loudly.
		deadNodes := 0
		for nd, e := range errs {
			if e != nil {
				if !classifiedErr(e) {
					t.Fatalf("seed %d: node %d failed unclassified: %v", seed, nd, e)
				}
				deadNodes++
			}
		}
		if deadNodes == 0 {
			t.Fatalf("seed %d: rollback but every node completed", seed)
		}
		// Determinism: the same seed replays the same rollback history.
		reps2, errs2, _ := run(seed)
		for nd := range errs {
			if (errs[nd] == nil) != (errs2[nd] == nil) {
				t.Fatalf("seed %d: node %d outcome not replay-stable: %v vs %v",
					seed, nd, errs[nd], errs2[nd])
			}
			if errs[nd] == nil {
				if reps2[nd].Rollbacks != reps[nd].Rollbacks || !slices.Equal(reps2[nd].Evicted, reps[nd].Evicted) {
					t.Fatalf("seed %d: node %d history not replay-stable: rollbacks %d/%d evicted %v/%v",
						seed, nd, reps[nd].Rollbacks, reps2[nd].Rollbacks, reps[nd].Evicted, reps2[nd].Evicted)
				}
			}
		}
		// Survivors agree with each other.
		for nd, e := range errs {
			if e == nil && (reps[nd].Rollbacks != ref.Rollbacks || !slices.Equal(reps[nd].Evicted, ref.Evicted)) {
				t.Fatalf("seed %d: survivors diverge: node %d %d/%v vs node %d %d/%v",
					seed, nd, reps[nd].Rollbacks, reps[nd].Evicted, survivor, ref.Rollbacks, ref.Evicted)
			}
		}
		return
	}
	t.Fatal("no seed in 1..24 produced a survivor-completes-after-rollback trial")
}

// TestWireKillSweepDigest: the kill rotation's digest is replay-stable — a
// sweep of the seed walks the same trials to the same outcomes as the run
// that pinned it.
func TestWireKillSweepDigest(t *testing.T) {
	rep := soak(WireKill, 3, Config{Seed: 0x4b11, MaxN: 160})
	assertSoakOK(t, rep)
	if got, pinned := uint64(rep.digest), uint64(0x4557bbdb19694989); got != pinned {
		t.Fatalf("kill digest %#x, pinned %#x: %s", got, pinned, rep)
	}
}

// TestWireChaosConformance is the transport conformance soak: the wire-chaos
// row's trials under the same chaos schedules on both backends, here all on
// 2x2 clusters. Every trial must end in an acceptable state on both
// (recovered, or loudly classified), and a trial both backends survive must
// report identical fault counters — the per-thread draw streams are
// backend-independent by construction.
func TestWireChaosConformance(t *testing.T) {
	row := WireChaos
	row.Salt, row.Geometries = 0, [][2]int{{2, 2}}
	rep := soak(row, 6, Config{Seed: 0xc0fa7e, MaxN: 160})
	assertSoakOK(t, rep)
	t.Log(rep)
}
