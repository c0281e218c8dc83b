package collective

import (
	"slices"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// TestEngineLargeRound runs one GetD / SetDMin / Exchange round on 3x2
// threads with 3*4096+17 requests per thread — long enough that every
// align, translate and permute loop of the engine runs
// over thousands of elements per peer segment — and compares every result
// with the sequential oracle (direct reads, a min-scatter, the owner
// partition). Optimized options put the offload filter's index
// indirection on the align and permute loops; Base leaves it off.
func TestEngineLargeRound(t *testing.T) {
	const n, k = 1 << 15, 3*4096 + 17
	for name, opts := range map[string]*Options{"base": Base(), "optimized": Optimized(4)} {
		t.Run(name, func(t *testing.T) {
			rt := testRT(t, 3, 2)
			s := rt.NumThreads()
			d := rt.NewSharedArray("D", n)
			rng := xrand.New(20)
			data := d.Raw()
			for i := range data {
				// D[0] = 0 is the pin Offload substitutes.
				data[i] = int64(i) * (1 + rng.Int64n(1<<20))
			}
			before, want := slices.Clone(data), slices.Clone(data)
			reqs, vals := make([][]int64, s), make([][]int64, s)
			owned := make([][]int64, s)
			for i := range reqs {
				reqs[i], vals[i] = make([]int64, k), make([]int64, k)
				for j := range reqs[i] {
					ix := rng.Int64n(n)
					reqs[i][j] = ix
					vals[i][j] = data[ix] - rng.Int64n(3) + 1
					if !(opts.Offload && ix == 0) {
						want[ix] = min(want[ix], vals[i][j])
					}
					owned[d.Owner(ix)] = append(owned[d.Owner(ix)], ix)
				}
			}
			comm := NewComm(rt)
			get, routed := make([][]int64, s), make([][]int64, s)
			rt.Run(func(th *pgas.Thread) {
				i := th.ID
				get[i] = make([]int64, k)
				comm.GetD(th, d, reqs[i], get[i], opts, nil)
				routed[i] = slices.Clone(comm.Exchange(th, d, reqs[i], opts, nil))
				comm.SetDMin(th, d, reqs[i], vals[i], opts, nil)
			})
			for i := 0; i < s; i++ {
				for j, ix := range reqs[i] {
					if get[i][j] != before[ix] {
						t.Fatalf("thread %d request %d (D[%d]): GetD %d, want %d", i, j, ix, get[i][j], before[ix])
					}
				}
				slices.Sort(routed[i])
				slices.Sort(owned[i])
				if !slices.Equal(routed[i], owned[i]) {
					t.Fatalf("thread %d: Exchange delivered %d items, its owner partition holds %d (or contents differ)",
						i, len(routed[i]), len(owned[i]))
				}
			}
			if !slices.Equal(data, want) {
				t.Fatal("SetDMin result differs from the sequential min-scatter")
			}
		})
	}
}

// TestVirtualThreadsOnlyPastTheCache: on 4x2 threads with 4 096-word
// (32 KB) serve blocks, an Optimized(2) GetD and SetDMin charge the same
// SimNS, to the bit, as with VirtualThreads 1 while the 1 MB cache holds
// the block; once the cache is cut to 4 KB the block exceeds it and the
// two schedules are charged apart.
func TestVirtualThreadsOnlyPastTheCache(t *testing.T) {
	const n, k = 8 * 4096, 3000
	run := func(cacheBytes int64, vt int) float64 {
		cfg := machine.PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode, cfg.CacheBytes = 4, 2, cacheBytes
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		comm := NewComm(rt)
		d := rt.NewSharedArray("D", n)
		opts := Optimized(2)
		opts.VirtualThreads = vt
		return rt.Run(func(th *pgas.Thread) {
			rng := xrand.New(uint64(th.ID) + 1)
			idx, vals := make([]int64, k), make([]int64, k)
			for j := range idx {
				idx[j], vals[j] = rng.Int64n(n), rng.Int64n(n)
			}
			comm.SetDMin(th, d, idx, vals, opts, nil)
			comm.GetD(th, d, idx, vals, opts, nil)
		}).SimNS
	}
	if fit, direct := run(1<<20, 2), run(1<<20, 1); fit != direct {
		t.Errorf("fitting block: VirtualThreads 2 charged %v ns, 1 charged %v", fit, direct)
	}
	if past, direct := run(4<<10, 2), run(4<<10, 1); past == direct {
		t.Errorf("block past the cache: VirtualThreads 2 and 1 both charged %v ns", past)
	}
}

// TestSteadyStateNoGrowth asserts the arena contract directly: after a
// warmup call, repeated collectives of the same shape perform zero scratch
// growths.
func TestSteadyStateNoGrowth(t *testing.T) {
	const n = 1 << 12
	rt := testRT(t, 2, 2)
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", n)
	d.FillIdentity()
	comm := NewComm(rt)

	reqs := make([][]int64, s)
	vals := make([][]int64, s)
	for i := 0; i < s; i++ {
		r := xrand.New(uint64(i + 1))
		reqs[i] = make([]int64, 2000)
		vals[i] = make([]int64, 2000)
		for j := range reqs[i] {
			reqs[i][j] = r.Int64n(n)
			vals[i][j] = r.Int64n(1 << 20)
		}
	}
	round := func() {
		rt.Run(func(th *pgas.Thread) {
			out := make([]int64, len(reqs[th.ID]))
			comm.GetD(th, d, reqs[th.ID], out, Optimized(4), nil)
			comm.SetDMin(th, d, reqs[th.ID], vals[th.ID], Optimized(4), nil)
			comm.Exchange(th, d, reqs[th.ID], Optimized(4), nil)
		})
	}
	round() // warm the arenas
	var warm int64
	for i := range comm.ts {
		warm += comm.ts[i].growths
	}
	for i := 0; i < 3; i++ {
		round()
	}
	var after int64
	for i := range comm.ts {
		after += comm.ts[i].growths
	}
	if after != warm {
		t.Fatalf("steady-state collectives grew scratch: %d new growths", after-warm)
	}
}

// TestValidateTable pins Validate's accept/reject behavior.
func TestValidateTable(t *testing.T) {
	valid := []*Options{nil, Base(), Optimized(4), {VirtualThreads: 1, Sort: QuickSort}}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options rejected: %+v: %v", o, err)
		}
	}
	invalid := []*Options{
		{},
		{VirtualThreads: -1},
		{VirtualThreads: 2, Sort: SortKind(7)},
		{VirtualThreads: 2, Offload: true, OffloadIndex: -5},
		{VirtualThreads: 2, Offload: true, OffloadIndex: 5},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options accepted: %+v", o)
		}
	}
}

// TestSanitize pins the nil / legacy-zero-value normalization.
func TestSanitize(t *testing.T) {
	if o := Sanitize(nil, true); *o != *Base() {
		t.Fatalf("Sanitize(nil) = %+v", o)
	}
	legacy := &Options{Circular: true} // VirtualThreads 0: pre-Defaults spelling
	o := Sanitize(legacy, true)
	if o.VirtualThreads != 1 || !o.Circular {
		t.Fatalf("legacy normalization wrong: %+v", o)
	}
	if legacy.VirtualThreads != 0 {
		t.Fatal("Sanitize must not mutate its argument")
	}
	off := Optimized(4)
	if o := Sanitize(off, false); o.Offload {
		t.Fatal("Sanitize(allowOffload=false) kept Offload")
	}
	if !off.Offload {
		t.Fatal("Sanitize must not mutate its argument")
	}
}

func TestValidateGeometry(t *testing.T) {
	if err := ValidateGeometry(16); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -4, MaxThreads + 1} {
		if err := ValidateGeometry(bad); err == nil {
			t.Errorf("geometry %d accepted", bad)
		}
	}
}

// TestCorruptPullLeavesPeerBuffersAlone: on a shared fabric a serve reads
// a remote node's request and value segments in place, out of the
// requester's plan buffers, so a pull's chaos verdict is drawn with no
// payload — a corrupt one aborts the attempt without damaging words the
// requester still owns — and the replay answers every request right.
// Corruption is armed at a rate that hits pulls of both nodes many times
// over; the planned GetD's grouped requests are compared word for
// word after the call, its answers with D, and the one-shot SetD's D with
// the values written (each index is written once, by one thread, so D
// shows any damaged value the scatter applies).
func TestCorruptPullLeavesPeerBuffersAlone(t *testing.T) {
	const n, k = 1 << 12, 2000
	rt := testRT(t, 2, 2)
	rt.ArmChaos(pgas.ChaosConfig{Seed: 3, CorruptRate: 0.2, MaxAttempts: 64, BackoffNS: 1})
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", n)
	rng := xrand.New(41)
	for i := range d.Raw() {
		d.Raw()[i] = rng.Int64n(1 << 30)
	}
	data, want := slices.Clone(d.Raw()), slices.Clone(d.Raw())
	reqs := planReqs(s, k, n)
	writes, vals := make([][]int64, s), make([][]int64, s)
	for ix := int64(0); ix < n; ix++ {
		i := rng.Intn(s)
		writes[i] = append(writes[i], ix)
		vals[i] = append(vals[i], rng.Int64n(1<<30))
		want[ix] = vals[i][len(vals[i])-1]
	}
	comm := NewComm(rt)
	plan := comm.NewPlan()
	rt.Run(func(th *pgas.Thread) { plan.PlanRequests(th, d, reqs[th.ID], Base(), nil) })
	grouped := make([][]int64, s)
	for i := range grouped {
		grouped[i] = slices.Clone(plan.pts[i].req[:plan.pts[i].k])
	}
	outs := make([][]int64, s)
	rt.Run(func(th *pgas.Thread) {
		outs[th.ID] = make([]int64, k)
		for range 8 { // a re-executed plan changes nothing
			plan.GetD(th, d, outs[th.ID])
		}
		for range 8 {
			comm.SetD(th, d, writes[th.ID], vals[th.ID], Base(), nil)
		}
	})
	if c := rt.ChaosStats().Corrupts; c < 20 {
		t.Fatalf("%d corrupt verdicts drawn: the test exercises too little", c)
	}
	for i := 0; i < s; i++ {
		if !slices.Equal(plan.pts[i].req[:plan.pts[i].k], grouped[i]) {
			t.Fatalf("thread %d: grouped requests changed under corrupt pulls", i)
		}
		for j, ix := range reqs[i] {
			if outs[i][j] != data[ix] {
				t.Fatalf("thread %d request %d: GetD D[%d] = %d, want %d", i, j, ix, outs[i][j], data[ix])
			}
		}
	}
	if !slices.Equal(d.Raw(), want) {
		t.Fatal("SetD under corrupt pulls differs from the values written")
	}
}
