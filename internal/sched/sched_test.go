package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// direct computes the specification result of the access step.
func direct(d, r []int64) []int64 {
	c := make([]int64, len(r))
	for i, idx := range r {
		c[i] = d[idx]
	}
	return c
}

func randomRequests(nd, nr int, seed uint64) (d, r []int64) {
	rng := xrand.New(seed)
	d = make([]int64, nd)
	for i := range d {
		d[i] = rng.Int63()
	}
	r = make([]int64, nr)
	for i := range r {
		r[i] = rng.Int64n(int64(nd))
	}
	return d, r
}

func TestReferenceMatchesDirect(t *testing.T) {
	for _, tc := range []struct{ nd, nr, w, depth int }{
		{1, 10, 4, 2},
		{16, 0, 4, 2},
		{100, 500, 1, 3},   // w=1: degenerate, direct
		{100, 500, 2, 1},   // single level, binary split
		{100, 500, 2, 10},  // deep recursion down to singletons
		{100, 500, 10, 2},  // the paper's two-level shape
		{97, 313, 7, 3},    // non-dividing sizes
		{1000, 100, 32, 3}, // more data than requests
	} {
		d, r := randomRequests(tc.nd, tc.nr, uint64(tc.nd*tc.nr+tc.w))
		got := Reference(d, r, tc.w, tc.depth)
		want := direct(d, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nd=%d nr=%d w=%d depth=%d: mismatch at %d",
					tc.nd, tc.nr, tc.w, tc.depth, i)
			}
		}
	}
}

func TestReferenceProperty(t *testing.T) {
	check := func(seed uint64, ndRaw, nrRaw uint8, wRaw, depthRaw uint8) bool {
		nd := int(ndRaw)%200 + 1
		nr := int(nrRaw) % 300
		w := int(wRaw)%16 + 1
		depth := int(depthRaw)%4 + 1
		d, r := randomRequests(nd, nr, seed)
		got := Reference(d, r, w, depth)
		want := direct(d, r)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReferencePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range request did not panic")
		}
	}()
	Reference([]int64{1, 2}, []int64{5}, 2, 2)
}

// withThread runs fn on a single-thread runtime and returns the thread's
// final clock.
func withThread(t *testing.T, fn func(th *pgas.Thread)) sim.Clock {
	t.Helper()
	cfg := machine.SingleSMP()
	cfg.ThreadsPerNode = 1
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clock sim.Clock
	rt.Run(func(th *pgas.Thread) {
		fn(th)
		clock = th.Clock
	})
	return clock
}

func TestGatherCorrectAllVT(t *testing.T) {
	d, r := randomRequests(1000, 5000, 7)
	want := direct(d, r)
	for _, vt := range []int{0, 1, 2, 3, 8, 16, 999, 1000, 2000} {
		withThread(t, func(th *pgas.Thread) {
			out := make([]int64, len(r))
			Gather(th, d, r, out, vt, true, nil)
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("vt=%d: mismatch at %d", vt, i)
					return
				}
			}
		})
	}
}

func TestGatherChargesTime(t *testing.T) {
	// A 2 MB block, twice the single-SMP machine's 1 MB cache: blocking
	// applies.
	d, r := randomRequests(1<<18, 5000, 9)
	out := make([]int64, len(r))
	clock := withThread(t, func(th *pgas.Thread) {
		Gather(th, d, r, out, 4, true, nil)
	})
	if clock.NS <= 0 {
		t.Fatal("Gather charged nothing")
	}
	if clock.ByCategory[sim.CatSort] <= 0 || clock.ByCategory[sim.CatCopy] <= 0 {
		t.Fatalf("blocked gather should charge sort and copy: %v", clock.ByCategory)
	}
}

// TestGatherFittingBlockIsDirect: a block the cache holds misses nothing
// on a revisit, so virtual threads would buy nothing; vt = 4 charges
// exactly what vt = 1 does, and no sort.
func TestGatherFittingBlockIsDirect(t *testing.T) {
	d, r := randomRequests(1000, 5000, 9)
	out := make([]int64, len(r))
	direct := withThread(t, func(th *pgas.Thread) { Gather(th, d, r, out, 1, true, nil) })
	blocked := withThread(t, func(th *pgas.Thread) { Gather(th, d, r, out, 4, true, nil) })
	if blocked.NS != direct.NS || blocked.ByCategory != direct.ByCategory || blocked.CacheMisses != direct.CacheMisses {
		t.Fatalf("vt=4 on a fitting block charged %v (%v misses), vt=1 %v (%v misses)",
			blocked.ByCategory, blocked.CacheMisses, direct.ByCategory, direct.CacheMisses)
	}
	if blocked.ByCategory[sim.CatSort] != 0 {
		t.Fatalf("vt=4 on a fitting block charged sort: %v", blocked.ByCategory)
	}
}

// TestAccessCostIsTheCharge: ChargeAccess charges exactly what AccessCost
// prices, and the price blocks only a block the cache cannot hold.
func TestAccessCostIsTheCharge(t *testing.T) {
	cfg := machine.SingleSMP()
	cfg.ThreadsPerNode = 1
	fits := cfg.CacheBytes / sim.ElemBytes
	for _, nb := range []int64{fits / 4, fits, fits + 1, 8 * fits} {
		for _, vt := range []int{1, 2, 8} {
			for _, localcpy := range []bool{true, false} {
				const k, distinct = 5000, 3000
				clock := withThread(t, func(th *pgas.Thread) { ChargeAccess(th, k, distinct, nb, vt, localcpy) })
				m := sim.NewModel(cfg)
				sortNS, copyNS, misses := AccessCost(m, k, distinct, nb, vt, localcpy)
				name := fmt.Sprintf("nb=%d vt=%d localcpy=%v", nb, vt, localcpy)
				if clock.ByCategory[sim.CatSort] != sortNS || clock.ByCategory[sim.CatCopy] != copyNS ||
					clock.NS != sortNS+copyNS || clock.CacheMisses != misses {
					t.Errorf("%s: charged sort %v copy %v misses %v, priced %v %v %v", name,
						clock.ByCategory[sim.CatSort], clock.ByCategory[sim.CatCopy], clock.CacheMisses, sortNS, copyNS, misses)
				}
				blocked := vt > 1 && nb > fits
				if (sortNS > 0) != blocked {
					t.Errorf("%s: sort %v, want blocked=%v", name, sortNS, blocked)
				}
				if oneSort, oneCopy, oneMiss := AccessCost(m, k, distinct, nb, 1, localcpy); !blocked &&
					(oneSort != sortNS || oneCopy != copyNS || oneMiss != misses) {
					t.Errorf("%s: priced %v %v %v, vt=1 %v %v %v", name, sortNS, copyNS, misses, oneSort, oneCopy, oneMiss)
				}
			}
		}
	}
}

func TestGatherSharedPtrPenalty(t *testing.T) {
	d, r := randomRequests(500, 2000, 11)
	out := make([]int64, len(r))
	with := withThread(t, func(th *pgas.Thread) { Gather(th, d, r, out, 1, true, nil) })
	without := withThread(t, func(th *pgas.Thread) { Gather(th, d, r, out, 1, false, nil) })
	if without.NS <= with.NS {
		t.Fatal("disabling localcpy must cost more")
	}
}

func TestScatterSet(t *testing.T) {
	local := make([]int64, 100)
	idx := []int64{5, 10, 5, 99}
	vals := []int64{1, 2, 3, 4}
	Access(local, idx, 0, vals, OpSet, &Scratch{})
	// Later entries win for OpSet.
	if local[5] != 3 || local[10] != 2 || local[99] != 4 {
		t.Fatalf("OpSet results wrong: %v %v %v", local[5], local[10], local[99])
	}
}

func TestScatterMin(t *testing.T) {
	local := make([]int64, 10)
	for i := range local {
		local[i] = 100
	}
	idx := []int64{3, 3, 3, 7, 8}
	vals := []int64{50, 20, 80, 200, 0}
	Access(local, idx, 0, vals, OpMin, &Scratch{})
	if local[3] != 20 {
		t.Fatalf("OpMin did not keep the minimum: %d", local[3])
	}
	if local[7] != 100 {
		t.Fatal("OpMin raised a value")
	}
	if local[8] != 0 {
		t.Fatal("OpMin missed a lower value")
	}
}

func TestScatterMinMatchesSequentialMin(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		local := make([]int64, 50)
		want := make([]int64, 50)
		for i := range local {
			v := rng.Int63()
			local[i], want[i] = v, v
		}
		k := int(rng.Int64n(200))
		idx := make([]int64, k)
		vals := make([]int64, k)
		for i := range idx {
			idx[i] = rng.Int64n(50)
			vals[i] = rng.Int63()
			if vals[i] < want[idx[i]] {
				want[idx[i]] = vals[i]
			}
		}
		ok := true
		Access(local, idx, 0, vals, OpMin, &Scratch{})
		for i := range want {
			if local[i] != want[i] {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScratchWarmReuseCheapens(t *testing.T) {
	// Serving the same requests twice against a warm scratch must charge
	// fewer misses the second time (the block is already resident).
	d, r := randomRequests(4000, 4000, 13)
	out := make([]int64, len(r))
	scr := &Scratch{}
	var first, second float64
	withThread(t, func(th *pgas.Thread) {
		scr.Reset(int64(len(d)))
		before := th.Clock.CacheMisses
		Gather(th, d, r, out, 1, true, scr)
		first = th.Clock.CacheMisses - before
		before = th.Clock.CacheMisses
		Gather(th, d, r, out, 1, true, scr)
		second = th.Clock.CacheMisses - before
	})
	if second >= first {
		t.Fatalf("warm gather missed as much as cold: %v vs %v", second, first)
	}
}

func TestGatherPanicsOnLengthMismatch(t *testing.T) {
	// The panic fires on the runtime's worker goroutine, so it must be
	// recovered there.
	panicked := false
	withThread(t, func(th *pgas.Thread) {
		defer func() {
			panicked = recover() != nil
		}()
		Gather(th, []int64{1}, []int64{0}, make([]int64, 2), 1, true, nil)
	})
	if !panicked {
		t.Fatal("length mismatch did not panic")
	}
}

// TestReferenceIntoArenaReuse verifies the arena form (referenceArena)
// matches Reference and stops allocating once warm.
func TestReferenceIntoArenaReuse(t *testing.T) {
	d, r := randomRequests(2000, 6000, 13)
	want := Reference(d, r, 8, 3)
	var arena Arena
	c := make([]int64, len(r))
	for round := 0; round < 3; round++ {
		referenceArena(d, r, 8, 3, c, &arena)
		for i := range want {
			if c[i] != want[i] {
				t.Fatalf("round %d: mismatch at %d", round, i)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		referenceArena(d, r, 8, 3, c, &arena)
	})
	if allocs > 0 {
		t.Fatalf("warm referenceArena allocates %v per run", allocs)
	}
}
