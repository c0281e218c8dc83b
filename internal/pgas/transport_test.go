package pgas

import (
	"errors"
	"testing"
)

// TestInprocTransportWindows exercises the reference transport directly:
// window registration, bulk reads and writes, the PutMin law, and the
// misuse surface (unexposed windows, out-of-range offsets) that every
// backend must classify identically.
func TestInprocTransportWindows(t *testing.T) {
	tr := NewInprocTransport(2)
	if !tr.Shared() {
		t.Fatal("inproc transport must report a shared fabric")
	}
	if tr.Nodes() != 2 || tr.Node() != 0 {
		t.Fatalf("geometry: nodes=%d node=%d, want 2/0", tr.Nodes(), tr.Node())
	}

	w := Win{Kind: WinArray, ID: 7, Sub: 3}
	data := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	tr.Expose(w, data)

	if err := tr.Put(nil, 1, w, 2, []int64{-5, -6}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 4)
	if err := tr.Get(nil, 1, w, 1, got); err != nil {
		t.Fatal(err)
	}
	want := []int64{20, -5, -6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Get after Put: got %v, want %v", got, want)
		}
	}

	// PutMin law: stores exactly when strictly smaller, reports it.
	if stored, err := tr.PutMin(nil, 1, w, 0, 3); err != nil || !stored {
		t.Fatalf("PutMin smaller: stored=%v err=%v, want true/nil", stored, err)
	}
	if stored, err := tr.PutMin(nil, 1, w, 0, 9); err != nil || stored {
		t.Fatalf("PutMin larger: stored=%v err=%v, want false/nil", stored, err)
	}
	if data[0] != 3 {
		t.Fatalf("PutMin left %d, want 3", data[0])
	}

	// Misuse surface: unknown windows and out-of-range offsets are
	// classified ErrMisuse, never a slice panic.
	if err := tr.Get(nil, 1, Win{Kind: WinArray, ID: 999}, 0, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("unexposed window: %v, want ErrMisuse", err)
	}
	if err := tr.Get(nil, 1, w, 6, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("out-of-range read: %v, want ErrMisuse", err)
	}
	if err := tr.Put(nil, 1, w, -1, got); !errors.Is(err, ErrMisuse) {
		t.Fatalf("negative offset: %v, want ErrMisuse", err)
	}
	if _, err := tr.PutMin(nil, 1, w, 8, 0); !errors.Is(err, ErrMisuse) {
		t.Fatalf("out-of-range PutMin: %v, want ErrMisuse", err)
	}

	// A shared fabric's rendezvous is the identity: barriers synchronize
	// clocks themselves.
	if got, err := tr.Rendezvous(12.5); err != nil || got != 12.5 {
		t.Fatalf("Rendezvous: %v/%v, want 12.5/nil", got, err)
	}

	// Re-exposing a window rebinds it (sequential runtimes reuse names).
	fresh := []int64{1, 2}
	tr.Expose(w, fresh)
	if err := tr.Put(nil, 1, w, 0, []int64{42}); err != nil {
		t.Fatal(err)
	}
	if fresh[0] != 42 || data[0] == 42 {
		t.Fatal("re-Expose did not rebind the window")
	}

	// Unexpose drops the ids in (lo, hi] — every kind and sub under them —
	// and nothing else; a dropped window reads like one never exposed.
	other := Win{Kind: WinReduce, ID: 7, Sub: 1}
	below := Win{Kind: WinArray, ID: 6}
	tr.Expose(other, []int64{1})
	tr.Expose(below, []int64{1})
	tr.Unexpose(6, 7)
	for _, dropped := range []Win{w, other} {
		if err := tr.Get(nil, 1, dropped, 0, got[:1]); !errors.Is(err, ErrMisuse) {
			t.Fatalf("window %+v after Unexpose(6,7): %v, want ErrMisuse", dropped, err)
		}
	}
	if err := tr.Get(nil, 1, below, 0, got[:1]); err != nil {
		t.Fatalf("Unexpose(6,7) dropped id 6: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

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
	red := NewOrReducer(rt)
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
