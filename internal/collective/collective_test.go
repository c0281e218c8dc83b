package collective

import (
	"fmt"
	"testing"
	"testing/quick"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

func testRT(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// optionVariants enumerates meaningful Options combinations.
func optionVariants() map[string]*Options {
	return map[string]*Options{
		"base":       Base(),
		"optimized":  Optimized(4),
		"circular":   {Circular: true},
		"localcpy":   {LocalCpy: true},
		"cachedids":  {CachedIDs: true},
		"offload":    {Offload: true},
		"vt8":        {VirtualThreads: 8},
		"quicksort":  {Sort: QuickSort},
		"vtq":        {VirtualThreads: 3, Sort: QuickSort, Circular: true},
		"everything": {VirtualThreads: 16, Circular: true, LocalCpy: true, CachedIDs: true, Offload: true, Sort: QuickSort},
	}
}

// runGetD executes GetD on every thread with per-thread request lists and
// returns per-thread outputs.
func runGetD(t *testing.T, rt *pgas.Runtime, data []int64, reqs [][]int64, opts *Options) [][]int64 {
	t.Helper()
	d := rt.NewSharedArray("D", int64(len(data)))
	copy(d.Raw(), data)
	comm := NewComm(rt)
	outs := make([][]int64, rt.NumThreads())
	rt.Run(func(th *pgas.Thread) {
		out := make([]int64, len(reqs[th.ID]))
		comm.GetD(th, d, reqs[th.ID], out, opts, nil)
		outs[th.ID] = out
	})
	return outs
}

func TestGetDMatchesDirect(t *testing.T) {
	const n = 200
	rng := xrand.New(1)
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63()
	}
	// Offload semantics pin index 0's value; keep data[0] = 0 so the
	// offload variant is exact too.
	data[0] = 0

	for _, geo := range []struct{ nodes, tpn int }{{1, 1}, {1, 4}, {4, 1}, {3, 2}} {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		reqs := make([][]int64, s)
		for i := range reqs {
			k := int(rng.Int64n(300))
			reqs[i] = make([]int64, k)
			for j := range reqs[i] {
				reqs[i][j] = rng.Int64n(n)
			}
		}
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("p%dt%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				outs := runGetD(t, rt, data, reqs, opts)
				for i, out := range outs {
					for j, v := range out {
						if want := data[reqs[i][j]]; v != want {
							t.Fatalf("thread %d req %d: got %d, want %d", i, j, v, want)
						}
					}
				}
			})
		}
	}
}

func TestGetDEmptyAndSkewed(t *testing.T) {
	rt := testRT(t, 2, 2)
	data := make([]int64, 50)
	for i := range data {
		data[i] = int64(i) * 3
	}
	data[0] = 0
	// Thread 0: empty list. Thread 1: all requests to one hot index.
	// Thread 2: only index 0 (fully offloadable). Thread 3: everything.
	reqs := [][]int64{
		{},
		{7, 7, 7, 7, 7, 7, 7, 7},
		{0, 0, 0},
		{49, 0, 25, 1, 0, 49},
	}
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			outs := runGetD(t, rt, data, reqs, opts)
			for i, out := range outs {
				for j := range out {
					if out[j] != data[reqs[i][j]] {
						t.Fatalf("thread %d req %d wrong", i, j)
					}
				}
			}
		})
	}
}

func TestSetDWrites(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 40)
	comm := NewComm(rt)
	// Disjoint writes: thread i writes positions i*10..i*10+4 with values
	// 1000*i+offset.
	rt.Run(func(th *pgas.Thread) {
		idx := make([]int64, 5)
		val := make([]int64, 5)
		for j := range idx {
			idx[j] = int64(th.ID*10 + j)
			val[j] = int64(1000*th.ID + j)
		}
		comm.SetD(th, d, idx, val, Base(), nil)
	})
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if got := d.LoadRaw(int64(i*10 + j)); got != int64(1000*i+j) {
				t.Fatalf("d[%d] = %d", i*10+j, got)
			}
		}
	}
}

func TestSetDConflictsResolveToSomeWriter(t *testing.T) {
	// Arbitrary concurrent write: with conflicting writers, the stored
	// value must be one of the proposed values.
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 4)
	comm := NewComm(rt)
	rt.Run(func(th *pgas.Thread) {
		comm.SetD(th, d, []int64{2}, []int64{int64(100 + th.ID)}, Base(), nil)
	})
	got := d.LoadRaw(2)
	if got < 100 || got > 103 {
		t.Fatalf("conflicting SetD stored %d, not a proposed value", got)
	}
}

func TestSetDMinSemantics(t *testing.T) {
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			rt := testRT(t, 2, 2)
			d := rt.NewSharedArray("D", 64)
			d.Fill(1 << 50)
			d.StoreRaw(0, 0) // offload variant assumes a pinned minimum at 0
			comm := NewComm(rt)
			rng := xrand.New(77)
			s := rt.NumThreads()
			idxs := make([][]int64, s)
			vals := make([][]int64, s)
			want := make([]int64, 64)
			for i := range want {
				want[i] = 1 << 50
			}
			want[0] = 0
			for i := 0; i < s; i++ {
				k := int(rng.Int64n(100))
				idxs[i] = make([]int64, k)
				vals[i] = make([]int64, k)
				for j := 0; j < k; j++ {
					ix := rng.Int64n(63) + 1
					v := rng.Int64n(1 << 40)
					idxs[i][j] = ix
					vals[i][j] = v
					if v < want[ix] {
						want[ix] = v
					}
				}
			}
			rt.Run(func(th *pgas.Thread) {
				comm.SetDMin(th, d, idxs[th.ID], vals[th.ID], opts, nil)
			})
			for i := range want {
				if got := d.LoadRaw(int64(i)); got != want[i] {
					t.Fatalf("d[%d] = %d, want %d", i, got, want[i])
				}
			}
		})
	}
}

func TestIDCacheReuse(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 100)
	d.FillIdentity()
	comm := NewComm(rt)
	opts := &Options{CachedIDs: true}
	rt.Run(func(th *pgas.Thread) {
		var cache IDCache
		idx := []int64{int64(th.ID), 50, 99}
		out := make([]int64, 3)
		comm.GetD(th, d, idx, out, opts, &cache)
		// Same list again: must be served from the cache, same results.
		comm.GetD(th, d, idx, out, opts, &cache)
		for j := range idx {
			if out[j] != idx[j] {
				t.Errorf("cached GetD wrong at %d", j)
			}
		}
		// Changed list of the same length requires a fresh cache.
		idx2 := []int64{0, 1, 2}
		cache = IDCache{}
		comm.GetD(th, d, idx2, out, opts, &cache)
		for j := range idx2 {
			if out[j] != idx2[j] {
				t.Errorf("post-reset GetD wrong at %d", j)
			}
		}
	})
}

func TestOffloadReducesTraffic(t *testing.T) {
	rt := testRT(t, 4, 1)
	run := func(offload bool) int64 {
		d := rt.NewSharedArray("D", 64)
		comm := NewComm(rt)
		opts := &Options{Offload: offload}
		res := rt.Run(func(th *pgas.Thread) {
			idx := make([]int64, 64)
			out := make([]int64, 64)
			// Every thread hammers index 0 (owned by thread 0).
			comm.GetD(th, d, idx, out, opts, nil)
		})
		return res.Bytes
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("offload did not reduce bytes: %d vs %d", with, without)
	}
}

func TestCircularIsCheaper(t *testing.T) {
	rt := testRT(t, 4, 2)
	run := func(circular bool) float64 {
		d := rt.NewSharedArray("D", 4096)
		d.FillIdentity()
		comm := NewComm(rt)
		opts := &Options{Circular: circular}
		rng := xrand.New(5)
		idxs := make([][]int64, rt.NumThreads())
		for i := range idxs {
			idxs[i] = make([]int64, 512)
			for j := range idxs[i] {
				idxs[i][j] = rng.Int64n(4096)
			}
		}
		res := rt.Run(func(th *pgas.Thread) {
			out := make([]int64, 512)
			comm.GetD(th, d, idxs[th.ID], out, opts, nil)
		})
		return res.SumByCategory[sim.CatComm]
	}
	circ, linear := run(true), run(false)
	if circ >= linear {
		t.Fatalf("circular schedule not cheaper: %v vs %v", circ, linear)
	}
}

func TestHierarchicalA2AReducesSetup(t *testing.T) {
	mk := func(hier bool) *pgas.Runtime {
		cfg := machine.PaperCluster()
		cfg.Nodes = 4
		cfg.ThreadsPerNode = 4
		cfg.HierarchicalA2A = hier
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	run := func(rt *pgas.Runtime) float64 {
		d := rt.NewSharedArray("D", 1024)
		comm := NewComm(rt)
		res := rt.Run(func(th *pgas.Thread) {
			idx := []int64{1, 500, 1000}
			out := make([]int64, 3)
			comm.GetD(th, d, idx, out, Base(), nil)
		})
		return res.SumByCategory[sim.CatSetup]
	}
	flat, hier := run(mk(false)), run(mk(true))
	if hier >= flat {
		t.Fatalf("hierarchical A2A did not reduce setup: %v vs %v", hier, flat)
	}
}

func TestCategoriesPopulated(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 256)
	comm := NewComm(rt)
	rng := xrand.New(9)
	res := rt.Run(func(th *pgas.Thread) {
		idx := make([]int64, 128)
		for j := range idx {
			idx[j] = rng.Split(uint64(th.ID)).Int64n(256)
		}
		out := make([]int64, 128)
		comm.GetD(th, d, idx, out, Optimized(4), nil)
	})
	for _, cat := range []sim.Category{sim.CatComm, sim.CatSort, sim.CatCopy, sim.CatIrregular, sim.CatSetup, sim.CatWork} {
		if res.SumByCategory[cat] <= 0 {
			t.Errorf("category %v empty", cat)
		}
	}
}

func TestGetDPanicsOnBadOutput(t *testing.T) {
	rt := testRT(t, 1, 1)
	d := rt.NewSharedArray("D", 8)
	comm := NewComm(rt)
	panicked := false
	rt.Run(func(th *pgas.Thread) {
		defer func() { panicked = recover() != nil }()
		comm.GetD(th, d, []int64{1, 2}, make([]int64, 1), Base(), nil)
	})
	if !panicked {
		t.Fatal("mismatched output length did not panic")
	}
}

func TestGetDPropertyRandomized(t *testing.T) {
	rt := testRT(t, 3, 2)
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Int64n(500) + 10
		data := make([]int64, n)
		for i := range data {
			data[i] = rng.Int63()
		}
		data[0] = 0
		s := rt.NumThreads()
		reqs := make([][]int64, s)
		for i := range reqs {
			k := int(rng.Int64n(200))
			reqs[i] = make([]int64, k)
			for j := range reqs[i] {
				reqs[i][j] = rng.Int64n(n)
			}
		}
		opts := &Options{
			VirtualThreads: int(rng.Int64n(8)),
			Circular:       rng.Uint64()&1 == 0,
			LocalCpy:       rng.Uint64()&1 == 0,
			CachedIDs:      rng.Uint64()&1 == 0,
			Offload:        rng.Uint64()&1 == 0,
		}
		outs := runGetD(t, rt, data, reqs, opts)
		for i, out := range outs {
			for j, v := range out {
				if v != data[reqs[i][j]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeRoutesToOwners(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 40) // blk=10: owner(i) = i/10
	comm := NewComm(rt)
	// Thread i sends items {i, i+10, i+20, i+30}: each owner must receive
	// exactly the four items it owns.
	received := make([][]int64, 4)
	rt.Run(func(th *pgas.Thread) {
		items := []int64{int64(th.ID), int64(th.ID) + 10, int64(th.ID) + 20, int64(th.ID) + 30}
		out := comm.Exchange(th, d, items, Base(), nil)
		received[th.ID] = append([]int64(nil), out...)
	})
	for owner := 0; owner < 4; owner++ {
		got := received[owner]
		if len(got) != 4 {
			t.Fatalf("owner %d received %d items, want 4", owner, len(got))
		}
		seen := map[int64]bool{}
		for _, v := range got {
			if d.Owner(v) != owner {
				t.Fatalf("owner %d received foreign item %d", owner, v)
			}
			seen[v] = true
		}
		if len(seen) != 4 {
			t.Fatalf("owner %d received duplicates: %v", owner, got)
		}
	}
}

func TestExchangeEmptyAndSkewed(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 16)
	comm := NewComm(rt)
	totals := make([]int, 4)
	rt.Run(func(th *pgas.Thread) {
		var items []int64
		if th.ID == 2 {
			items = []int64{0, 0, 0, 1, 15} // skew to thread 0 and 3
		}
		out := comm.Exchange(th, d, items, &Options{Circular: true}, nil)
		totals[th.ID] = len(out)
	})
	if totals[0] != 4 || totals[3] != 1 || totals[1] != 0 || totals[2] != 0 {
		t.Fatalf("received counts %v, want [4 0 0 1]", totals)
	}
}

func TestExchangePairs(t *testing.T) {
	rt := testRT(t, 2, 2)
	d := rt.NewSharedArray("D", 40)
	comm := NewComm(rt)
	type recv struct{ items, values []int64 }
	got := make([]recv, 4)
	rt.Run(func(th *pgas.Thread) {
		// Thread i sends (10*owner + i) to each owner.
		items := []int64{0, 10, 20, 30}
		values := []int64{int64(th.ID), int64(10 + th.ID), int64(20 + th.ID), int64(30 + th.ID)}
		is, vs := comm.ExchangePairs(th, d, items, values, &Options{Circular: true}, nil)
		got[th.ID] = recv{append([]int64(nil), is...), append([]int64(nil), vs...)}
	})
	for owner := 0; owner < 4; owner++ {
		r := got[owner]
		if len(r.items) != 4 {
			t.Fatalf("owner %d received %d pairs, want 4", owner, len(r.items))
		}
		for j, it := range r.items {
			if d.Owner(it) != owner {
				t.Fatalf("owner %d received foreign index %d", owner, it)
			}
			// Value encodes (10*owner + sender): the index part must match.
			if r.values[j]/10 != int64(owner) {
				t.Fatalf("owner %d: value %d misrouted", owner, r.values[j])
			}
		}
	}
}
