package collective

import (
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

func TestDefaultParallelism(t *testing.T) {
	cases := []struct{ procs, s, want int }{
		{1, 16, 1},
		{16, 16, 1},
		{32, 16, 2},
		{64, 4, 8}, // capped
		{8, 0, 1},
		{0, 4, 1},
	}
	for _, c := range cases {
		if got := defaultParallelism(c.procs, c.s); got != c.want {
			t.Errorf("defaultParallelism(%d, %d) = %d, want %d", c.procs, c.s, got, c.want)
		}
	}
}

// TestParallelismInvariance runs every collective with request lists large
// enough to cross the parallel grain and asserts the results are
// bit-identical to the serial configuration — the parallel serve/permute
// paths must not change data or determinism, only wall-clock time.
func TestParallelismInvariance(t *testing.T) {
	const n = 1 << 16
	rng := xrand.New(42)
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int64n(1 << 30)
	}

	run := func(par int, opts *Options) (getOuts, pairOuts1, pairOuts2 [][]int64, setRaw, minRaw []int64) {
		rt := testRT(t, 2, 2)
		s := rt.NumThreads()
		d := rt.NewSharedArray("D", n)
		copy(d.Raw(), data)
		d2 := rt.NewSharedArray("D2", n)
		for i := range data {
			d2.Raw()[i] = data[i] * 3
		}
		comm := NewComm(rt)
		comm.par = par

		// Deterministic per-thread request lists, long enough that every
		// per-peer segment and the final permute exceed 2*parGrain.
		const k = 40000
		reqs := make([][]int64, s)
		vals := make([][]int64, s)
		for i := 0; i < s; i++ {
			r := xrand.New(uint64(100 + i))
			reqs[i] = make([]int64, k)
			vals[i] = make([]int64, k)
			for j := range reqs[i] {
				reqs[i][j] = r.Int64n(n)
				vals[i][j] = r.Int64n(1 << 30)
			}
		}

		getOuts = make([][]int64, s)
		pairOuts1 = make([][]int64, s)
		pairOuts2 = make([][]int64, s)
		rt.Run(func(th *pgas.Thread) {
			out := make([]int64, k)
			comm.GetD(th, d, reqs[th.ID], out, opts, nil)
			getOuts[th.ID] = out
			o1 := make([]int64, k)
			o2 := make([]int64, k)
			comm.GetDPair(th, d, d2, reqs[th.ID], o1, o2, opts, nil)
			pairOuts1[th.ID] = o1
			pairOuts2[th.ID] = o2
			comm.SetDMin(th, d, reqs[th.ID], vals[th.ID], opts, nil)
		})
		minRaw = append([]int64(nil), d.Raw()...)

		copy(d.Raw(), data)
		rt2 := testRT(t, 2, 2)
		dd := rt2.NewSharedArray("D", n)
		copy(dd.Raw(), data)
		comm2 := NewComm(rt2)
		comm2.par = par
		rt2.Run(func(th *pgas.Thread) {
			comm2.SetD(th, dd, reqs[th.ID], vals[th.ID], opts, nil)
		})
		setRaw = append([]int64(nil), dd.Raw()...)
		return
	}

	for name, opts := range map[string]*Options{
		"base":      Base(),
		"optimized": Optimized(8),
	} {
		t.Run(name, func(t *testing.T) {
			g1, p11, p21, s1, m1 := run(1, opts)
			g4, p14, p24, s4, m4 := run(4, opts)
			for i := range g1 {
				if !eq64(g1[i], g4[i]) {
					t.Fatalf("GetD thread %d differs between par=1 and par=4", i)
				}
				if !eq64(p11[i], p14[i]) || !eq64(p21[i], p24[i]) {
					t.Fatalf("GetDPair thread %d differs between par=1 and par=4", i)
				}
			}
			if !eq64(s1, s4) {
				t.Fatal("SetD result differs between par=1 and par=4")
			}
			if !eq64(m1, m4) {
				t.Fatal("SetDMin result differs between par=1 and par=4")
			}
		})
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

// TestParHelpersChunking drives the chunked mover directly across the
// grain boundary with a forced worker count.
func TestParHelpersChunking(t *testing.T) {
	rt := testRT(t, 1, 2)
	comm := NewComm(rt)
	comm.par = 3
	rng := xrand.New(7)
	for _, n := range []int{0, 1, parGrain - 1, parGrain, 3*parGrain + 17, 5 * parGrain} {
		pos := make([]int32, n)
		for i := range pos {
			pos[i] = int32(i)
		}
		// Fisher-Yates for a nontrivial permutation.
		for i := n - 1; i > 0; i-- {
			j := rng.Int64n(int64(i + 1))
			pos[i], pos[j] = pos[j], pos[i]
		}
		val := make([]int64, n)
		for i := range val {
			val[i] = rng.Int64n(1 << 40)
		}
		out := make([]int64, n)
		comm.moveAll(move{kind: movePermute, pos: pos, a: val, out: out}, n)
		for p, j := range pos {
			if out[j] != val[p] {
				t.Fatalf("n=%d: movePermute wrong at %d", n, p)
			}
		}

		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int64n(1 << 40)
		}
		dst := make([]int64, n)
		comm.moveAll(move{kind: moveAlign, pos: pos, a: src, out: dst}, n)
		for p, j := range pos {
			if dst[p] != src[j] {
				t.Fatalf("n=%d: moveAlign wrong at %d", n, p)
			}
		}

		tr := make([]int64, n)
		comm.moveAll(move{kind: moveTranslate, a: src, out: tr, base: 11}, n)
		for i := range src {
			if tr[i] != src[i]-11 {
				t.Fatalf("n=%d: moveTranslate wrong at %d", n, i)
			}
		}
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
	valid := []*Options{nil, Base(), Defaults(), Optimized(4), {VirtualThreads: 1, Sort: QuickSort}}
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
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options accepted: %+v", o)
		}
	}
}

// TestSanitize pins the nil / legacy-zero-value normalization.
func TestSanitize(t *testing.T) {
	if o := Sanitize(nil, true); *o != *Defaults() {
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
