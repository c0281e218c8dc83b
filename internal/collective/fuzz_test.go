package collective

import (
	"fmt"
	"slices"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// FuzzPlanRequests drives the exchange engine's plan path with arbitrary
// request vectors, geometries, placements (block, cyclic, hub; see
// lawPlacements), option bits and ops, so the build's key pass — index
// check, offload and combine filter, owner key — sees requests reach every
// owner. It pins the plan
// contract: a gather (GetD or GetDCombined) must equal the trivial oracle
// out[j] = D[indices[j]] one-shot and through a plan, and re-executing the
// unchanged plan must return bit-identical results; a scatter (SetDMin or
// SetD) must leave D equal to the sequential scatter.
func FuzzPlanRequests(f *testing.F) {
	f.Add(byte(0), byte(16), byte(0), byte(0), []byte{0})
	f.Add(byte(3), byte(100), byte(31), byte(4), []byte("plan requests against every owner"))
	f.Add(byte(4), byte(255), byte(8), byte(8), []byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233})
	f.Add(byte(5), byte(40), byte(9), byte(11), []byte{0, 0, 7, 7, 0, 200, 7, 9, 0})
	f.Fuzz(func(t *testing.T, geoRaw, nRaw, optBits, shape byte, reqBytes []byte) {
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
		opts := &Options{
			Circular:  optBits&1 != 0,
			LocalCpy:  optBits&2 != 0,
			CachedIDs: optBits&4 != 0,
		}
		if optBits&8 != 0 {
			opts.Offload = true // slot 0 is pinned to value 0 below
		}
		if optBits&16 != 0 {
			opts.Sort = QuickSort
		}
		opts.VirtualThreads = []int{0, 2, 3, 8}[int(optBits>>5)%4]
		pl := lawPlacements[int(shape)%len(lawPlacements)]
		op := int(shape/3) % 4 // GetD, GetDCombined, SetDMin, SetD

		reqs := make([][]int64, s)
		vals := make([][]int64, s)
		per := len(reqBytes)/s + 1
		for i := 0; i < s; i++ {
			reqs[i] = make([]int64, per)
			vals[i] = make([]int64, per)
			for j := range reqs[i] {
				b := int64(0)
				if ix := i*per + j; ix < len(reqBytes) {
					b = int64(reqBytes[ix])
				}
				reqs[i][j] = (b*2654435761 + int64(i+13*j)) % n
				if reqs[i][j] < 0 {
					reqs[i][j] += n
				}
				// Non-negative, so the pinned D[0] = 0 stays the minimum.
				vals[i][j] = (b*40503 + int64(7*i+j)) % (n * 1024)
			}
		}

		reqs = at(place(pl.owner, n, s), reqs)

		d := rt.NewSharedArray("D", n)
		for i := int64(1); i < n; i++ {
			d.Raw()[i] = i*1664525 + 1013904223
		}
		want := slices.Clone(d.Raw())
		comm := NewComm(rt)
		switch op {
		case 0, 1:
			p := comm.NewPlan() // a Plan is collective state, shared by all threads
			rt.Run(func(th *pgas.Thread) {
				req := reqs[th.ID]
				k := len(req)
				oneShot := make([]int64, k)
				if op == 0 {
					comm.GetD(th, d, req, oneShot, opts, nil)
				} else {
					comm.GetDCombined(th, d, req, oneShot, opts)
				}

				p.PlanRequests(th, d, req, opts, nil)
				first := make([]int64, k)
				p.GetD(th, d, first)
				second := make([]int64, k)
				p.GetD(th, d, second)

				for j := 0; j < k; j++ {
					want := d.Raw()[req[j]]
					if oneShot[j] != want {
						t.Errorf("%s thread %d: one-shot gather[%d] = %d, want D[%d] = %d", pl.name, th.ID, j, oneShot[j], req[j], want)
						return
					}
					if first[j] != want {
						t.Errorf("%s thread %d: plan GetD[%d] = %d, want %d", pl.name, th.ID, j, first[j], want)
						return
					}
					if second[j] != first[j] {
						t.Errorf("%s thread %d: plan re-exec[%d] = %d, first = %d (reuse not bit-identical)", pl.name, th.ID, j, second[j], first[j])
						return
					}
				}
			})
			return
		case 2:
			for i := range reqs {
				for j, ix := range reqs[i] {
					want[ix] = min(want[ix], vals[i][j])
				}
			}
			rt.Run(func(th *pgas.Thread) { comm.SetDMin(th, d, reqs[th.ID], vals[th.ID], opts, nil) })
		case 3:
			// Every writer of an index sends the same value, so the
			// arbitrary write has one outcome.
			val := func(ix int64) int64 { return ix*31 + 5 }
			for i := range reqs {
				for j, ix := range reqs[i] {
					vals[i][j] = val(ix)
					want[ix] = val(ix)
				}
			}
			rt.Run(func(th *pgas.Thread) { comm.SetD(th, d, reqs[th.ID], vals[th.ID], opts, nil) })
		}
		if !slices.Equal(d.Raw(), want) {
			t.Fatalf("%s: scatter op %d differs from the sequential scatter", pl.name, op)
		}
	})
}

// FuzzStarsGather holds a stars list's roots path to its endpoint path.
// Each input draws a star forest over n vertices (every star rooted at
// its smallest vertex), a coarser forest it merges into, and pairs of
// vertices; the list of pairs gathers on the fine forest twice, each time
// passing over the labels as the kernels do (Hooks, then Compact), the
// forests merge, and every thread gathers once at its roots (forced) and
// once at its endpoints. The two must agree pair for pair and read D at
// the endpoints, at 1×1, 4×2 and 3×3, with offload on and off, laid out
// (scramble by 5003) on odd seeds, carrying ids when seed&2 is set.
// A twin list that compacts without the hook pass must end each fine
// round as the hooked list does (hookPassAgrees), and the hook buffers'
// room must be the thread's edge span whatever the slab under them.
func FuzzStarsGather(f *testing.F) {
	f.Add(uint64(1), byte(40), byte(3), byte(2), []byte("stars merge into fewer stars"))
	f.Add(uint64(2), byte(200), byte(180), byte(7), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 250, 3, 99, 42})
	f.Add(uint64(7), byte(0), byte(0), byte(0), []byte{0, 0, 1, 1})
	// Sparse, m = n = 32: at 4×2 the slab is three blocks of D, more than
	// the two edge spans of hooks it backs.
	f.Add(uint64(3), byte(24), byte(9), byte(3), []byte("m = n = 32: at 4x2 a slab of 3 blocks outgrows 2 edge spans 12>8"))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, starsRaw, groupsRaw byte, pairs []byte) {
		n := int64(nRaw) + 8
		m := int64(len(pairs) / 2)
		if m == 0 {
			return
		}
		rng := xrand.New(seed)
		stars := int64(starsRaw)%n + 1
		groups := int64(groupsRaw)%stars + 1
		star, group := make([]int64, n), make([]int64, stars)
		for v := range star {
			star[v] = rng.Int64n(stars)
		}
		for i := range group {
			group[i] = rng.Int64n(groups)
		}
		// The root of a star, and of a group of stars, is its smallest vertex:
		// D[0] = 0 in both forests, as offload needs.
		starRoot, groupRoot := make([]int64, stars), make([]int64, groups)
		for i := range starRoot {
			starRoot[i] = n
		}
		for i := range groupRoot {
			groupRoot[i] = n
		}
		for v := int64(0); v < n; v++ {
			starRoot[star[v]] = min(starRoot[star[v]], v)
			groupRoot[group[star[v]]] = min(groupRoot[group[star[v]]], v)
		}
		pos := func(v int64) int64 { return v }
		var lay Layout
		if seed&1 != 0 {
			lay, pos = scramble(n, 5003) // n < 5003, a prime
		}
		fine, coarse := make([]int64, n), make([]int64, n)
		for v := int64(0); v < n; v++ {
			fine[pos(v)], coarse[pos(v)] = starRoot[star[v]], groupRoot[group[star[v]]]
		}
		eu, ev := make([]int32, m), make([]int32, m)
		for e := range eu {
			eu[e], ev[e] = int32(int64(pairs[2*e])%n), int32(int64(pairs[2*e+1])%n)
		}

		for _, geo := range [][2]int{{1, 1}, {4, 2}, {3, 3}} {
			for _, offload := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/offload=%v", geo[0], geo[1], offload)
				rt := testRT(t, geo[0], geo[1])
				opts := Optimized(2)
				opts.Offload = offload
				d := rt.NewSharedArray("D", n)
				copy(d.Raw(), fine)
				comm := NewComm(rt)
				live, twins := comm.NewLiveEdges(true, false, d, lay), comm.NewLiveEdges(true, false, d, lay)
				els, kept := make([]*EdgeList, rt.NumThreads()), make([][]int64, rt.NumThreads())
				rt.Run(func(th *pgas.Thread) {
					el, twin := live.List(th, eu, ev, seed&2 != 0), twins.List(th, eu, ev, seed&2 != 0)
					lo, hi := th.Span(m)
					blo, bhi := d.ThreadCover(th.ID)
					if span, block := hi-lo, bhi-blo; cap(el.hookIdx) != int(span) || cap(el.hookVal) != int(span) ||
						len(el.SlabIdx) != int(max(span, 2*block)) || len(el.SlabVal) != int(max(span, block)) {
						t.Errorf("%s thread %d: hook room %d/%d on slabs of %d/%d, want the edge span %d on max(%d, 2*%d)/max(%d, %d)",
							name, th.ID, cap(el.hookIdx), cap(el.hookVal), len(el.SlabIdx), len(el.SlabVal), span, span, block, span, block)
					}
					for round := range 2 {
						el.Gather(th, d, opts, false)
						twin.Gather(th, d, opts, false)
						if round == 0 {
							for j := 0; j < len(el.Labels); j += 2 {
								if el.Labels[j] != el.Labels[j+1] {
									kept[th.ID] = append(kept[th.ID], el.Labels[j], el.Labels[j+1])
								}
							}
						}
						if err := hookPassAgrees(th, el, twin, pos); err != nil {
							t.Errorf("%s thread %d round %d: %v", name, th.ID, round, err)
						}
					}
					els[th.ID] = el
				})
				copy(d.Raw(), coarse)
				rt.Run(func(th *pgas.Thread) {
					el := els[th.ID]
					forced := el.ForcePath(true, kept[th.ID])
					el.Gather(th, d, opts, false)
					roots := slices.Clone(el.Labels)
					el.ForcePath(false, nil)
					el.Gather(th, d, opts, false)
					for j, e := range el.Ends {
						if el.Labels[j] != coarse[e] {
							t.Errorf("%s thread %d: endpoint Labels[%d] = %d, D[%d] = %d", name, th.ID, j, el.Labels[j], e, coarse[e])
							return
						}
						if forced && roots[j] != el.Labels[j] {
							t.Errorf("%s thread %d: roots path Labels[%d] = %d, endpoint path %d", name, th.ID, j, roots[j], el.Labels[j])
							return
						}
					}
				})
			}
		}
	})
}

// hookPassAgrees runs el's hook pass and Compact, then twin's Compact
// alone, on lists that gathered the same labels. The hooks must be the
// pairs with different labels, in order, as (pos(max), min) — min<<32 | id
// on a list with ids — charged an op per pair and one per hook; the two
// lists must then hold the same Ends, Labels and IDs, the same count and
// path, and each Compact must charge the same.
func hookPassAgrees(th *pgas.Thread, el, twin *EdgeList, pos func(int64) int64) error {
	var idx []int32
	var val []int64
	for j := 0; j < len(el.Labels); j += 2 {
		if a, b := el.Labels[j], el.Labels[j+1]; a != b {
			v := min(a, b)
			if el.IDs != nil {
				v = v<<32 | int64(el.IDs[j/2])
			}
			idx, val = append(idx, int32(pos(max(a, b)))), append(val, v)
		}
	}
	var want sim.Clock
	want.Charge(sim.CatWork, th.Runtime().Model().Ops(int64(len(el.Labels)/2+len(idx))))
	clocks := make([]sim.Clock, 3)
	saved := th.Clock
	for i, step := range []func(){
		func() { el.Hooks(th) },
		func() { el.Compact(th) },
		func() { twin.Compact(th) },
	} {
		th.Clock = sim.Clock{}
		step()
		clocks[i] = th.Clock
	}
	th.Clock = saved
	switch {
	case !slices.Equal(el.hookIdx, idx) || !slices.Equal(el.hookVal, val):
		return fmt.Errorf("hooks %v -> %v, want %v -> %v", el.hookIdx, el.hookVal, idx, val)
	case clocks[0] != want:
		return fmt.Errorf("hook pass charged %+v, want %+v", clocks[0], want)
	case !slices.Equal(el.Ends, twin.Ends) || !slices.Equal(el.Labels, twin.Labels) || !slices.Equal(el.IDs, twin.IDs):
		return fmt.Errorf("hooked list %v / %v / %v, compacted alone %v / %v / %v", el.Ends, el.Labels, el.IDs, twin.Ends, twin.Labels, twin.IDs)
	case el.distinct != twin.distinct || el.viaRoots != twin.viaRoots:
		return fmt.Errorf("hooked list counts %d (roots %v), compacted alone %d (roots %v)", el.distinct, el.viaRoots, twin.distinct, twin.viaRoots)
	case clocks[1] != clocks[2]:
		return fmt.Errorf("Compact after the hook pass charged %+v, alone %+v", clocks[1], clocks[2])
	}
	return nil
}
