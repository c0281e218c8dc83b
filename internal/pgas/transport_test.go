package pgas

import (
	"errors"
	"testing"
)

// TestReleaseDropsScope: Release ends the lifetime of exactly what was
// allocated since the Mark — arrays leave the replica sync, their windows
// and the reducer's leave the transport — and nothing older.
func TestReleaseDropsScope(t *testing.T) {
	tr := newFakeEvictor(2, 0, 1)
	rt, err := NewOnTransport(wireCfg(2, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	resident := rt.NewSharedArray("resident", 8)
	m := rt.Mark()
	scratch := rt.NewSharedArray("scratch", 8)
	red := NewReducer(rt)
	if len(rt.arrays) != 2 {
		t.Fatalf("%d arrays tracked, want 2", len(rt.arrays))
	}
	rt.Release(m)

	if len(rt.arrays) != 1 || rt.arrays[0] != resident {
		t.Fatalf("arrays after Release: %v, want only the resident one", rt.arrays)
	}
	buf := make([]int64, 1)
	if err := tr.Get(nil, 0, resident.win, 0, buf); err != nil {
		t.Fatalf("resident array's window dropped: %v", err)
	}
	for _, w := range []Win{scratch.win, red.wins[0], red.wins[1]} {
		if err := tr.Get(nil, 0, w, 0, buf); !errors.Is(err, ErrMisuse) {
			t.Fatalf("window %+v still exposed after Release: %v", w, err)
		}
	}
	// Released ids are not reused: a stale name stays detectable.
	if next := rt.NewSharedArray("next", 8); next.win.ID <= red.wins[0].ID {
		t.Fatalf("window id %d reused after release of %d", next.win.ID, red.wins[0].ID)
	}
}

// TestReleaseWaitsForEvictionToSettle: after a region lost to an eviction
// the transport is still live and a slower survivor may still be reading
// this node's windows, so Release leaves them exposed; Evict's agreement is
// what finally drops the retired geometry's windows.
func TestReleaseWaitsForEvictionToSettle(t *testing.T) {
	tr := newFakeEvictor(2, 0, 1)
	rt, err := NewOnTransport(wireCfg(2, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	rt.ArmChaos(ChaosConfig{Seed: 1, KillRate: 1})
	m := rt.Mark()
	arr := rt.NewSharedArray("D", 8)
	if _, err := rt.RunE(func(th *Thread) { th.Barrier() }); !errors.Is(err, ErrEvicted) {
		t.Fatalf("region under KillRate 1: %v, want ErrEvicted", err)
	}
	rt.Release(m)
	buf := make([]int64, 1)
	if err := tr.Get(nil, 0, arr.win, 0, buf); err != nil {
		t.Fatalf("window dropped while the eviction is unsettled: %v", err)
	}
	// Node 1 is the proposal; this node survives and drops everything the
	// retired runtime exposed.
	if _, err := rt.Evict([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Get(nil, 0, arr.win, 0, buf); !errors.Is(err, ErrMisuse) {
		t.Fatalf("retired geometry's window survived Evict: %v", err)
	}
}
