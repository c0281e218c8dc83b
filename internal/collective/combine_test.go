package collective

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// These tests pin the one-shot SetDMin's requester-side combining (see
// keyPass): whatever the filter drops, D after the call is the
// sequential min-scatter of every offered request, and the delivered
// count reported to the Tracer obeys the filter's own laws — never more
// than offered, exactly one request per target when values ascend and the
// targets fit the table without collisions, every request when they
// descend.

// requestCounts is the slice of Tracer this file needs: per-thread offered
// and kept request counts of the calls of one kind.
type requestCounts struct {
	kind          string
	mu            sync.Mutex
	offered, kept []int64
}

func newRequestCounts(kind string, s int) *requestCounts {
	return &requestCounts{kind: kind, offered: make([]int64, s), kept: make([]int64, s)}
}

func (r *requestCounts) Collective(call Call) {
	if call.Kind != r.kind {
		return
	}
	r.mu.Lock()
	r.offered[call.Thread] += call.Offered
	r.kept[call.Thread] += call.Kept
	r.mu.Unlock()
}
func (r *requestCounts) totals() (offered, kept int64) {
	for i := range r.offered {
		offered += r.offered[i]
		kept += r.kept[i]
	}
	return offered, kept
}

// combineInit is every slot's value before the scatter; slot 0 holds 0 so
// the Offload variants' pinned-minimum premise holds.
const combineInit = int64(1) << 40

// minScatter is the sequential oracle: D after applying every (idx, val)
// of every thread as D[idx] = min(D[idx], val).
func minScatter(n int64, idxs, vals [][]int64) []int64 {
	want := make([]int64, n)
	for i := range want {
		want[i] = combineInit
	}
	want[0] = 0
	for i := range idxs {
		for j, ix := range idxs[i] {
			if vals[i][j] < want[ix] {
				want[ix] = vals[i][j]
			}
		}
	}
	return want
}

// runSetDMin issues one one-shot SetDMin per thread, requesting idxs
// through pos, and returns D read back at pos and the per-thread request
// counts.
func runSetDMin(rt *pgas.Runtime, pos []int64, opts *Options, n int64, idxs, vals [][]int64) ([]int64, *requestCounts) {
	d := rt.NewSharedArray("D", n)
	for i := int64(1); i < n; i++ {
		d.Raw()[i] = combineInit
	}
	idxs = at(pos, idxs)
	comm := NewComm(rt)
	counts := newRequestCounts("SetDMin", rt.NumThreads())
	comm.SetTracer(counts)
	rt.Run(func(th *pgas.Thread) {
		o := *opts
		comm.SetDMin(th, d, idxs[th.ID], vals[th.ID], &o, nil)
	})
	got := make([]int64, n)
	for i, p := range pos {
		got[i] = d.Raw()[p]
	}
	return got, counts
}

// distinctTargets counts the distinct indices of one list, leaving out the
// offloaded index 0 when offload is set.
func distinctTargets(idx []int64, offload bool) int64 {
	seen := map[int64]bool{}
	for _, ix := range idx {
		if ix == 0 && offload {
			continue
		}
		seen[ix] = true
	}
	return int64(len(seen))
}

func TestSetDMinCombineLaws(t *testing.T) {
	// shape builds one thread's request list; exact says what the kept
	// count must be, given the thread's offered and distinct-target counts
	// (nil: only kept <= offered is known).
	type shape struct {
		name  string
		n     int64
		build func(r *xrand.Rand, n int64) (idx, val []int64)
		exact func(offered, distinct int64) int64
	}
	one := func(_, distinct int64) int64 { return distinct }
	all := func(offered, _ int64) int64 { return offered }
	shapes := []shape{
		{"random-heavy-dup", 97, func(r *xrand.Rand, n int64) (idx, val []int64) {
			for j := 0; j < 400; j++ {
				idx = append(idx, r.Int64n(n))
				val = append(val, r.Int64n(1<<20))
			}
			return
		}, nil},
		{"offloaded-index-dups", 50, func(r *xrand.Rand, n int64) (idx, val []int64) {
			for j := 0; j < 200; j++ {
				ix := int64(0)
				if j%3 == 2 {
					ix = r.Int64n(n)
				}
				idx = append(idx, ix)
				val = append(val, r.Int64n(1<<20))
			}
			return
		}, nil},
		{"equal-values", 64, func(r *xrand.Rand, n int64) (idx, val []int64) {
			for j := 0; j < 300; j++ {
				ix := r.Int64n(n)
				idx = append(idx, ix)
				val = append(val, 1000+ix) // one value per target
			}
			return
		}, one},
		{"ascending-runs", 4096, func(r *xrand.Rand, n int64) (idx, val []int64) {
			for j := 0; j < 1500; j++ {
				idx = append(idx, r.Int64n(300)*13%n)
				val = append(val, int64(j))
			}
			return
		}, one},
		{"descending-runs", 4096, func(r *xrand.Rand, n int64) (idx, val []int64) {
			// Targets stay clear of 0: under Offload those drop first.
			for j := 0; j < 1500; j++ {
				idx = append(idx, 1+r.Int64n(300))
				val = append(val, int64(5000-j))
			}
			return
		}, all},
		{"more-targets-than-slots", 3 * combineSlots, func(r *xrand.Rand, n int64) (idx, val []int64) {
			// Pairs of targets one table-length apart evict each other
			// between repeats: the filter forgets, and must still be right.
			for j := 0; j < 3000; j++ {
				ix := r.Int64n(combineSlots/8) + int64(j%3)*combineSlots
				idx = append(idx, ix)
				val = append(val, r.Int64n(64))
			}
			for ix := int64(0); ix < n; ix += 2 { // > combineSlots distinct targets
				idx = append(idx, ix)
				val = append(val, 100+ix%7)
			}
			return
		}, nil},
	}
	for _, geo := range []struct{ nodes, tpn int }{{1, 1}, {3, 2}} {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for _, sh := range shapes {
			idxs, vals := make([][]int64, s), make([][]int64, s)
			for i := 0; i < s; i++ {
				idxs[i], vals[i] = sh.build(xrand.New(uint64(31+i)), sh.n)
			}
			want := minScatter(sh.n, idxs, vals)
			for _, pl := range lawPlacements {
				pos := place(pl.owner, sh.n, s)
				for _, offload := range []bool{false, true} {
					t.Run(fmt.Sprintf("%dx%d/%s/%s/offload=%v", geo.nodes, geo.tpn, sh.name, pl.name, offload), func(t *testing.T) {
						opts := &Options{VirtualThreads: 2, Circular: true, Offload: offload}
						got, counts := runSetDMin(rt, pos, opts, sh.n, idxs, vals)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("D[%d] = %d, sequential min-scatter gives %d", i, got[i], want[i])
							}
						}
						for i := 0; i < s; i++ {
							offered, kept := counts.offered[i], counts.kept[i]
							if offered != int64(len(idxs[i])) {
								t.Errorf("thread %d: tracer saw %d offered requests, the call passed %d", i, offered, len(idxs[i]))
							}
							if kept > offered {
								t.Errorf("thread %d: %d requests delivered of %d offered", i, kept, offered)
							}
							if sh.exact == nil {
								continue
							}
							if want := sh.exact(offered, distinctTargets(idxs[i], offload)); kept != want {
								t.Errorf("thread %d: %d requests delivered of %d offered, want %d", i, kept, offered, want)
							}
						}
					})
				}
			}
		}
	}
}

// FuzzSetDMinCombine feeds the one-shot SetDMin arbitrary index/value
// lists — geometry, placement, options and table pressure all drawn from
// the input — and holds D against the sequential min-scatter.
func FuzzSetDMinCombine(f *testing.F) {
	f.Add(byte(0), byte(9), byte(0), []byte{0, 0, 0, 1, 0, 0})
	f.Add(byte(5), byte(200), byte(0x4f), []byte("the same few roots, asked again and again and again"))
	f.Add(byte(2), byte(33), byte(0xa9), []byte{4, 1, 9, 8, 1, 7, 4, 1, 6, 12, 1, 5, 0, 1, 4, 8, 1, 3})
	f.Fuzz(func(t *testing.T, geoRaw, nRaw, optBits byte, data []byte) {
		geos := [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {3, 2}}
		geo := geos[int(geoRaw)%len(geos)]
		cfg := machine.PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode = geo[0], geo[1]
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := rt.NumThreads()
		n := int64(nRaw)*7 + int64(4*s)
		if optBits&64 != 0 {
			n += 2 * combineSlots // targets a table length apart: evictions
		}
		opts := &Options{
			VirtualThreads: 1 + int(optBits>>4)&3,
			Circular:       optBits&1 != 0,
			LocalCpy:       optBits&2 != 0,
			CachedIDs:      optBits&4 != 0,
			Offload:        optBits&8 != 0,
		}
		pos := place(lawPlacements[int(optBits>>7)+int(geoRaw>>7)].owner, n, s)

		// Three bytes a request: a coarse and a fine index byte (the coarse
		// one strides a quarter table), and a small signed value.
		idxs, vals := make([][]int64, s), make([][]int64, s)
		for r := 0; 3*r+2 < len(data); r++ {
			i := r % s
			ix := (int64(data[3*r])*(combineSlots/4) + int64(data[3*r+1])) % n
			v := int64(int8(data[3*r+2]))
			if opts.Offload && v < 0 {
				v = -v // slot 0 is pinned at the minimum, 0
			}
			idxs[i] = append(idxs[i], ix)
			vals[i] = append(vals[i], v)
		}
		want := minScatter(n, idxs, vals)
		got, counts := runSetDMin(rt, pos, opts, n, idxs, vals)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("D[%d] = %d, sequential min-scatter gives %d", i, got[i], want[i])
			}
		}
		if offered, kept := counts.totals(); kept > offered {
			t.Fatalf("%d requests delivered of %d offered", kept, offered)
		}
	})
}

// TestSetDMinCombineIgnoresIDCache: which requests combining keeps depends
// on the values, so one index list can survive as different sub-lists of
// equal length on two calls. An IDCache is keyed by the index list; were
// it consulted, the second call would route its kept requests with the
// first call's owners.
func TestSetDMinCombineIgnoresIDCache(t *testing.T) {
	rt := testRT(t, 2, 2)
	s := rt.NumThreads()
	const n = 64
	a, b := int64(3), int64(n-2) // first and last thread's blocks
	idx := []int64{a, b, a, b}
	calls := [][]int64{
		{5, 3, 3, 5}, // keeps (a,5) (b,3) (a,3)
		{3, 5, 5, 3}, // keeps (a,3) (b,5) (b,3)
	}
	d := rt.NewSharedArray("D", n)
	for i := range d.Raw() {
		d.Raw()[i] = combineInit
	}
	comm := NewComm(rt)
	caches := make([]IDCache, s)
	opts := &Options{VirtualThreads: 1, CachedIDs: true}
	for c, vals := range calls {
		rt.Run(func(th *pgas.Thread) {
			o := *opts
			comm.SetDMin(th, d, idx, vals, &o, &caches[th.ID])
		})
		for i, v := range d.Raw() {
			want := combineInit
			if int64(i) == a || int64(i) == b {
				want = 3
			}
			if v != want {
				t.Fatalf("call %d: D[%d] = %d, want %d", c, i, v, want)
			}
		}
		d.Raw()[a], d.Raw()[b] = combineInit, combineInit
	}
}

// The tests below pin GetDCombined, the request filter's combining for a
// read (see keyPass): out is the direct gather D[idx] whatever was
// folded away, exactly what GetD returns; the delivered count never exceeds
// the offered one and is one request per distinct index when the indices
// fit the table without collisions.

// runGetDCombined issues one GetDCombined per thread against D, which holds
// data[i] at pos[i], requesting idxs through pos, and returns every
// thread's answers and request counts.
func runGetDCombined(rt *pgas.Runtime, pos []int64, opts *Options, data []int64, idxs [][]int64) ([][]int64, *requestCounts) {
	d := rt.NewSharedArray("D", int64(len(data)))
	for i, v := range data {
		d.Raw()[pos[i]] = v
	}
	idxs = at(pos, idxs)
	comm := NewComm(rt)
	counts := newRequestCounts("GetD", rt.NumThreads())
	comm.SetTracer(counts)
	outs := make([][]int64, rt.NumThreads())
	rt.Run(func(th *pgas.Thread) {
		o := *opts
		outs[th.ID] = make([]int64, len(idxs[th.ID]))
		comm.GetDCombined(th, d, idxs[th.ID], outs[th.ID], &o)
	})
	return outs, counts
}

// combineData fills D with values that name their slot; slot 0 holds 0,
// the Offload variants' pinned value.
func combineData(n int64) []int64 {
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i) * 1_000_003
	}
	return data
}

func TestGetDCombineLaws(t *testing.T) {
	// exact: the indices fit the table without collisions, so every thread
	// delivers exactly one request per distinct index.
	type shape struct {
		name  string
		n     int64
		exact bool
		build func(r *xrand.Rand, n int64) []int64
	}
	shapes := []shape{
		{"all-equal", 64, true, func(r *xrand.Rand, n int64) (idx []int64) {
			root := 1 + r.Int64n(n-1)
			for j := 0; j < 300; j++ {
				idx = append(idx, root)
			}
			return
		}},
		{"ascending-runs", 4096, true, func(r *xrand.Rand, n int64) (idx []int64) {
			for j := int64(0); j < 1500; j++ {
				idx = append(idx, j/5*13%n)
			}
			return
		}},
		{"few-roots-many-repeats", 4096, true, func(r *xrand.Rand, n int64) (idx []int64) {
			roots := []int64{0, 3, 700, 701, n - 1}
			for j := 0; j < 2000; j++ {
				idx = append(idx, roots[r.Intn(len(roots))])
			}
			return
		}},
		{"offloaded-index-repeats", 50, true, func(r *xrand.Rand, n int64) (idx []int64) {
			// Two requests in three ask for D[0]: under Offload they are
			// dropped and answered locally, never duplicates of one
			// another; without it they fold onto the first.
			for j := 0; j < 200; j++ {
				ix := int64(0)
				if j%3 == 2 {
					ix = r.Int64n(n)
				}
				idx = append(idx, ix)
			}
			return
		}},
		{"more-distinct-than-slots", 3 * combineSlots, false, func(r *xrand.Rand, n int64) (idx []int64) {
			// Indices one table-length apart evict each other between
			// repeats: the filter forgets, and must still be right.
			for j := 0; j < 3000; j++ {
				idx = append(idx, r.Int64n(combineSlots/8)+int64(j%3)*combineSlots)
			}
			for ix := int64(0); ix < n; ix += 2 { // > combineSlots distinct indices
				idx = append(idx, ix, ix)
			}
			return
		}},
		{"empty", 16, true, func(*xrand.Rand, int64) []int64 { return nil }},
	}
	for _, geo := range []struct{ nodes, tpn int }{{1, 1}, {3, 2}, {4, 2}} {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for _, sh := range shapes {
			data := combineData(sh.n)
			idxs := make([][]int64, s)
			for i := 0; i < s; i++ {
				idxs[i] = sh.build(xrand.New(uint64(57+i)), sh.n)
			}
			for _, pl := range lawPlacements {
				pos := place(pl.owner, sh.n, s)
				for _, offload := range []bool{false, true} {
					t.Run(fmt.Sprintf("%dx%d/%s/%s/offload=%v", geo.nodes, geo.tpn, sh.name, pl.name, offload), func(t *testing.T) {
						opts := &Options{VirtualThreads: 2, Circular: true, Offload: offload}
						outs, counts := runGetDCombined(rt, pos, opts, data, idxs)
						for i := 0; i < s; i++ {
							for j, ix := range idxs[i] {
								if outs[i][j] != data[ix] {
									t.Fatalf("thread %d: out[%d] = %d, D[%d] = %d", i, j, outs[i][j], ix, data[ix])
								}
							}
							offered, kept := counts.offered[i], counts.kept[i]
							if offered != int64(len(idxs[i])) {
								t.Errorf("thread %d: tracer saw %d offered requests, the call passed %d", i, offered, len(idxs[i]))
							}
							if kept > offered {
								t.Errorf("thread %d: %d requests delivered of %d offered", i, kept, offered)
							}
							if want := distinctTargets(idxs[i], offload); sh.exact && kept != want {
								t.Errorf("thread %d: %d requests delivered of %d offered, want one per distinct index, %d", i, kept, offered, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestCombineTableStartsEmpty: a thread's combine table outlives its calls
// but forgets them. Calls on one Comm, over arrays of 64 and 4 096 words,
// the last two with the table's base moved to the top of int64, so that
// keys and base wrap around, each deliver one request per distinct index
// and read D: none is taken for a repeat of an earlier call's request.
func TestCombineTableStartsEmpty(t *testing.T) {
	rt := testRT(t, 2, 1)
	comm := NewComm(rt)
	for call, n := range []int64{64, 4096, 64, 64} {
		d := rt.NewSharedArray("D", n)
		copy(d.Raw(), combineData(n))
		for i := range comm.ts {
			if tab := comm.ts[i].comb; tab != nil && call >= 2 {
				tab.base = math.MaxInt64 - n + 3 - int64(call)
			}
		}
		counts := newRequestCounts("GetD", rt.NumThreads())
		comm.SetTracer(counts)
		idxs, outs := make([][]int64, rt.NumThreads()), make([][]int64, rt.NumThreads())
		rt.Run(func(th *pgas.Thread) {
			for j := range int64(300) {
				idxs[th.ID] = append(idxs[th.ID], (j*7+int64(th.ID))%40*(n/64))
			}
			outs[th.ID] = make([]int64, len(idxs[th.ID]))
			comm.GetDCombined(th, d, idxs[th.ID], outs[th.ID], Base())
		})
		for i, idx := range idxs {
			for j, ix := range idx {
				if outs[i][j] != d.Raw()[ix] {
					t.Fatalf("call %d thread %d: out[%d] = %d, D[%d] = %d", call, i, j, outs[i][j], ix, d.Raw()[ix])
				}
			}
			if want := distinctTargets(idx, false); counts.kept[i] != want {
				t.Errorf("call %d thread %d: %d requests delivered, want one per distinct index, %d", call, i, counts.kept[i], want)
			}
		}
	}
}

// TestGetDCombinedChargesTheProbeAndTheFanOut: on a list without repeats
// GetDCombined costs what GetD costs plus one op per offered request; on a
// list where every index is asked twice it costs a GetD of the distinct
// half plus the probe over the whole list and the fan-out of the other
// half, a dense permutation. Nothing else moves.
func TestGetDCombinedChargesTheProbeAndTheFanOut(t *testing.T) {
	const n, k = 1 << 12, 3000
	for _, geo := range lawGeometries {
		for _, offload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/offload=%v", geo.nodes, geo.tpn, offload), func(t *testing.T) {
				opts := &Options{VirtualThreads: 2, Circular: true, LocalCpy: true, Offload: offload}
				s := geo.nodes * geo.tpn
				// Index 0 stays out: under Offload its repeat is a drop, not a
				// duplicate.
				once, twice := make([][]int64, s), make([][]int64, s)
				for i := range once {
					once[i] = xrand.New(uint64(7 + i)).Perm(n - 1)[:k]
					for j := range once[i] {
						once[i][j]++
					}
					twice[i] = append(slices.Clone(once[i]), once[i]...)
				}
				sim := func(reqs [][]int64, combined bool) float64 {
					rt := testRT(t, geo.nodes, geo.tpn)
					d := rt.NewSharedArray("D", n)
					copy(d.Raw(), combineData(n))
					comm := NewComm(rt)
					return rt.Run(func(th *pgas.Thread) {
						o := *opts
						out := make([]int64, len(reqs[th.ID]))
						if combined {
							comm.GetDCombined(th, d, reqs[th.ID], out, &o)
						} else {
							comm.GetD(th, d, reqs[th.ID], out, &o, nil)
						}
					}).SimNS
				}
				model := testRT(t, 1, 1).Model()
				const roundoff = 1e-3 // ns; the totals are ~1e6 ns float64 sums
				plain := sim(once, false)
				if extra := sim(once, true) - plain - model.Ops(k); extra > roundoff || extra < -roundoff {
					t.Errorf("no repeats: GetDCombined is off GetD + probe by %v ns", extra)
				}
				// Every thread offers 2k requests; under Offload the filter's
				// streaming compare runs over 2k of them instead of k.
				want := plain + model.Ops(2*k)
				if offload {
					want += model.SeqScan(2*k) - model.SeqScan(k)
				}
				fan, _ := model.DensePermute(k)
				if extra := sim(twice, true) - want - fan; extra > roundoff || extra < -roundoff {
					t.Errorf("every index twice: GetDCombined is off GetD(distinct) + probe + fan-out by %v ns", extra)
				}
			})
		}
	}
}

// TestPlannedGetDDeliversEverything: combining is a fact about a call
// site, not about GetD. A planned GetD and the live edge list's gathers —
// planned or one-shot — deliver every request they are given, however
// often the list repeats itself.
func TestPlannedGetDDeliversEverything(t *testing.T) {
	rt := testRT(t, 2, 2)
	s := rt.NumThreads()
	const n, k = 64, 100
	d := rt.NewSharedArray("D", n)
	copy(d.Raw(), combineData(n))
	comm := NewComm(rt)
	counts := newRequestCounts("GetD", s)
	comm.SetTracer(counts)
	plan := comm.NewPlan()
	static, shrinking := comm.NewLiveEdges(false, false, nil, nil), comm.NewLiveEdges(true, false, nil, nil)
	eu, ev := make([]int32, k*s), make([]int32, k*s) // five endpoints, k pairs a thread
	for e := range eu {
		eu[e], ev[e] = 1+int32(2*e%5), 1+int32((2*e+1)%5)
	}
	rt.Run(func(th *pgas.Thread) {
		idx, out := make([]int64, k), make([]int64, k)
		for j := range idx {
			idx[j] = int64(j % 5)
		}
		plan.PlanRequests(th, d, idx, Base(), nil)
		plan.GetD(th, d, out)
		plan.GetD(th, d, out)
		for j, ix := range idx {
			if out[j] != d.Raw()[ix] {
				t.Errorf("thread %d: planned out[%d] = %d, D[%d] = %d", th.ID, j, out[j], ix, d.Raw()[ix])
			}
		}
		for _, live := range []*LiveEdges{static, shrinking} {
			el := live.List(th, eu, ev, false)
			el.Gather(th, d, Base(), false)
			el.Gather(th, d, Base(), false)
		}
	})
	want := int64(2*k*s + 2*2*2*k*s) // two planned executions; two lists x two gathers x 2k endpoints
	if offered, kept := counts.totals(); kept != offered || offered != want {
		t.Fatalf("planned GetD and LiveEdges.Gather delivered %d of %d requests, want all %d", kept, offered, want)
	}
}

// FuzzGetDCombine feeds GetDCombined arbitrary index lists — geometry,
// placement, options and table pressure all drawn from the input — and
// holds every answer against the direct gather.
func FuzzGetDCombine(f *testing.F) {
	f.Add(byte(0), byte(9), byte(0), []byte{0, 0, 0, 1, 0, 0})
	f.Add(byte(5), byte(200), byte(0x4f), []byte("the same few roots, asked again and again and again"))
	f.Add(byte(2), byte(33), byte(0xa9), []byte{4, 1, 4, 1, 8, 1, 4, 1, 12, 1, 0, 0, 8, 1, 0, 0})
	f.Fuzz(func(t *testing.T, geoRaw, nRaw, optBits byte, data []byte) {
		geos := [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {3, 2}}
		geo := geos[int(geoRaw)%len(geos)]
		cfg := machine.PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode = geo[0], geo[1]
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := rt.NumThreads()
		n := int64(nRaw)*7 + int64(4*s)
		if optBits&64 != 0 {
			n += 2 * combineSlots // indices a table length apart: evictions
		}
		opts := &Options{
			VirtualThreads: 1 + int(optBits>>4)&3,
			Circular:       optBits&1 != 0,
			LocalCpy:       optBits&2 != 0,
			CachedIDs:      optBits&4 != 0,
			Offload:        optBits&8 != 0,
		}
		if optBits&32 != 0 {
			opts.Sort = QuickSort
		}
		pos := place(lawPlacements[int(optBits>>7)+int(geoRaw>>7)].owner, n, s)

		// Two bytes a request: a coarse index byte striding a quarter table
		// and a fine one.
		idxs := make([][]int64, s)
		for r := 0; 2*r+1 < len(data); r++ {
			ix := (int64(data[2*r])*(combineSlots/4) + int64(data[2*r+1])) % n
			idxs[r%s] = append(idxs[r%s], ix)
		}
		d := combineData(n)
		outs, counts := runGetDCombined(rt, pos, opts, d, idxs)
		for i := range idxs {
			for j, ix := range idxs[i] {
				if outs[i][j] != d[ix] {
					t.Fatalf("thread %d: out[%d] = %d, D[%d] = %d", i, j, outs[i][j], ix, d[ix])
				}
			}
		}
		if offered, kept := counts.totals(); kept > offered {
			t.Fatalf("%d requests delivered of %d offered", kept, offered)
		}
	})
}
