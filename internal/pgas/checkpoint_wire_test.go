package pgas

import "testing"

// TestCheckpointWireSeedsRemoteBlocks: on a non-shared transport each
// process's threads snapshot only their own node's blocks, so the shadow
// buffers must be seeded from the registration-time contents — otherwise a
// post-eviction restore would clobber the blocks the dead node owned with
// zeros. After a commit and an eviction, the restored array must hold the
// committed values in the local blocks and the initial fill (never zeros)
// in the blocks nobody here snapshotted.
func TestCheckpointWireSeedsRemoteBlocks(t *testing.T) {
	tr := newFakeEvictor(2, 0, 1)
	rt, err := NewOnTransport(wireCfg(2, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	ck := rt.ArmCheckpoints()

	const n = 8
	arr := rt.NewSharedArray("D", n)
	arr.FillIdentity()
	Register(rt, "D", arr)

	// White-box: both shadows start as the registration-time fill, not zero.
	e := ck.byName["D"]
	for i := int64(0); i < n; i++ {
		if e.snaps[0][i] != i || e.snaps[1][i] != i {
			t.Fatalf("shadow[%d] = %d/%d, want seeded identity %d",
				i, e.snaps[0][i], e.snaps[1][i], i)
		}
	}

	// One superstep: the local thread rewrites its covered block; the
	// barrier checkpoint commits it.
	if _, err := rt.RunE(func(th *Thread) {
		lo, hi := arr.ThreadCover(th.ID)
		for i := lo; i < hi; i++ {
			arr.StoreRaw(i, 100+i)
		}
		th.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if committed, _, _, _ := ck.Stats(); committed == 0 {
		t.Fatal("no checkpoint committed")
	}

	// Evict the peer node and restore on the survivor geometry.
	nrt, err := rt.Evict([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	ck.Rebind(nrt)
	arr2 := nrt.NewSharedArray("D", n)
	Register(nrt, "D", arr2)

	lo, hi := arr.ThreadCover(0) // node 0's block in the old geometry
	for i := int64(0); i < n; i++ {
		want := i // seeded initial fill for the dead node's block
		if i >= lo && i < hi {
			want = 100 + i // last committed value for the local block
		}
		if got := arr2.Raw()[i]; got != want {
			t.Fatalf("restored[%d] = %d, want %d", i, got, want)
		}
	}
}
