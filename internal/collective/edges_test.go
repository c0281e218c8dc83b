package collective

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/trace"
	"pgasgraph/internal/xrand"
)

// TestLiveEdgesLaws pins the list's contract under every placement of
// lawPlacements, as the list's layout, with and without Offload:
//
//   - Gather returns what a one-shot GetD of the same endpoint vector
//     returns, whichever way it gathers (identity copy, reused plan,
//     shrinking one-shot);
//   - the identity copy runs no collective, a list that never shrinks
//     builds its plan exactly once however often it gathers, and a
//     shrinking one never holds or reuses a plan;
//   - Compact keeps exactly the pairs whose labels differ, in order, ids
//     aligned — and leaves a list created not to shrink alone, uncharged.
func TestLiveEdgesLaws(t *testing.T) {
	const (
		n      = 150
		m      = 400
		rounds = 5
	)
	rng := xrand.New(0xed9e5)
	eu, ev := make([]int64, m), make([]int64, m)
	for e := range eu {
		eu[e], ev[e] = rng.Int64n(n), rng.Int64n(n)
	}
	ends := func(lo, hi int64, ends []int64) {
		for e := lo; e < hi; e++ {
			ends[2*(e-lo)], ends[2*(e-lo)+1] = eu[e], ev[e]
		}
	}

	for _, pl := range lawPlacements {
		for _, offload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/offload=%v", pl.name, offload), func(t *testing.T) {
				rt := testRT(t, 3, 2)
				opts := Base()
				opts.Offload = offload // index 0, whose label stays 0 throughout
				pos := place(pl.owner, n, rt.NumThreads())
				d := rt.NewSharedArray("D", n)
				fill := func() { // the identity labels, laid out
					for v, p := range pos {
						d.Raw()[p] = int64(v)
					}
				}
				fill()
				comm, ref := NewComm(rt), NewComm(rt) // ref answers the one-shot GetDs untraced
				counts := trace.NewCollector(rt.NumThreads())
				comm.SetTracer(counts)
				lay := layout(pos)
				static, shrinking := comm.NewLiveEdges(false, false, false, lay), comm.NewLiveEdges(true, false, false, lay)
				if shrinking.plan != nil {
					t.Fatal("a shrinking list holds a plan")
				}

				// gather runs el.Gather and compares it with ref's GetD.
				gather := func(th *pgas.Thread, el *EdgeList, identity bool) {
					want := make([]int64, len(el.Ends))
					ref.GetD(th, d, el.Ends, want, opts, nil)
					el.Gather(th, d, opts, identity)
					if !slices.Equal(el.Labels, want) {
						t.Errorf("thread %d: Gather(identity=%v) = %v, GetD = %v", th.ID, identity, el.Labels, want)
					}
				}
				// merge halves every covered label, so each round more pairs
				// gather equal labels.
				merge := func(th *pgas.Thread) {
					lo, hi := d.ThreadCover(th.ID)
					for i := lo; i < hi; i++ {
						d.StoreRaw(i, d.LoadRaw(i)/2)
					}
					th.Barrier()
				}

				rt.Run(func(th *pgas.Thread) {
					el := static.List(th, m, ends, false)
					gather(th, el, true)
				})
				if b, r := counts.PlanBuilds(), counts.PlanReuses(); b != 0 || r != 0 {
					t.Errorf("identity gather ran a collective: %d plan builds, %d reuses", b, r)
				}

				rt.Run(func(th *pgas.Thread) {
					el := static.List(th, m, ends, true)
					all, ids := slices.Clone(el.Ends), slices.Clone(el.IDs)
					for round := 0; round < rounds; round++ {
						gather(th, el, false)
						before := th.Clock.NS
						el.Compact(th)
						if !slices.Equal(el.Ends, all) || !slices.Equal(el.IDs, ids) || th.Clock.NS != before {
							t.Errorf("thread %d: Compact touched a list created not to shrink", th.ID)
						}
						merge(th)
					}
				})
				if b, r := counts.PlanBuilds(), counts.PlanReuses(); b != 1 || r != rounds-1 {
					t.Errorf("static list over %d rounds: %d plan builds, %d reuses per thread; want 1 and %d", rounds, b, r, rounds-1)
				}

				counts.Reset()
				fill()
				rt.Run(func(th *pgas.Thread) {
					el := shrinking.List(th, m, ends, true)
					for round := 0; round < rounds; round++ {
						gather(th, el, false)
						var keptEnds, keptIDs []int64
						for j, e := range el.IDs {
							if el.Labels[2*j] != el.Labels[2*j+1] {
								keptEnds = append(keptEnds, el.Ends[2*j], el.Ends[2*j+1])
								keptIDs = append(keptIDs, e)
							}
						}
						el.Compact(th)
						if !slices.Equal(el.Ends, keptEnds) || !slices.Equal(el.IDs, keptIDs) {
							t.Errorf("thread %d round %d: Compact kept ends %v ids %v, want %v %v",
								th.ID, round, el.Ends, el.IDs, keptEnds, keptIDs)
						}
						for j, e := range el.IDs {
							if el.Ends[2*j] != pos[eu[e]] || el.Ends[2*j+1] != pos[ev[e]] {
								t.Errorf("thread %d round %d: id %d rides with the wrong pair", th.ID, round, e)
							}
						}
						merge(th)
					}
				})
				if b, r := counts.PlanBuilds(), counts.PlanReuses(); b != rounds || r != 0 {
					t.Errorf("shrinking list over %d rounds: %d plan builds, %d reuses per thread; want %d and 0", rounds, b, r, rounds)
				}
			})
		}
	}
}

// serveLoads counts, per thread, the GetD requests it offered and the
// elements it served.
type serveLoads struct {
	mu              sync.Mutex
	offered, served []int64
}

func newServeLoads(s int) *serveLoads {
	return &serveLoads{offered: make([]int64, s), served: make([]int64, s)}
}

func (l *serveLoads) Collective(kind string, thread int, _ sim.Breakdown, elements, _ int64, _ time.Duration, _ int64) {
	if kind == "GetD" {
		l.mu.Lock()
		l.offered[thread] += elements
		l.mu.Unlock()
	}
}
func (l *serveLoads) Transfer(server, _ int, elems int64) {
	l.mu.Lock()
	l.served[server] += elems
	l.mu.Unlock()
}
func (*serveLoads) PlanBuild(int, int64) {}
func (*serveLoads) PlanReuse(int, int64) {}

// seatRuntimes returns the runtimes of a nodes×tpn machine: one in
// process, or one per node of a unix-socket cluster hosted inside the
// test process.
func seatRuntimes(t *testing.T, nodes, tpn int, wire bool) []*pgas.Runtime {
	t.Helper()
	if !wire {
		return []*pgas.Runtime{testRT(t, nodes, tpn)}
	}
	dir := t.TempDir()
	rts := make([]*pgas.Runtime, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for nd := range rts {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes: nodes, Node: nd, ThreadsPerNode: tpn, Dir: dir, Timeout: 20 * time.Second})
			if err != nil {
				errs[nd] = err
				return
			}
			t.Cleanup(func() { tr.Close() })
			cfg := machine.PaperCluster()
			cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
			rts[nd], errs[nd] = pgas.NewOnTransport(cfg, tr)
		}(nd)
	}
	wg.Wait()
	for nd, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", nd, err)
		}
	}
	return rts
}

// scramble is a test layout: vertex v's label at position v·mul mod n,
// a bijection when mul and n are coprime, with pos(0) = 0, that deals the
// low ids over every block.
func scramble(n, mul int64) (Layout, func(v int64) int64) {
	pos := func(v int64) int64 { return v * mul % n }
	return func(dst, src []int64) {
		for i, v := range src {
			dst[i] = pos(v)
		}
	}, pos
}

// layout is the Layout that puts vertex v's label at pos[v]; nil, the
// list's own identity path, when pos is the identity.
func layout(pos []int64) Layout {
	for v, p := range pos {
		if p != int64(v) {
			return func(dst, src []int64) {
				for i, v := range src {
					dst[i] = pos[v]
				}
			}
		}
	}
	return nil
}

// TestStarsGather pins the roots path of a list created to shrink under
// the stars assertion. d holds a forest of rooted stars; the list gathers
// and compacts; the stars merge into fewer, larger ones; the list gathers
// again:
//
//   - Labels[j] == D[Ends[j]] exactly, whichever path the thread took;
//   - a thread offers its GetD the distinct roots its kept pairs named
//     exactly when the price allows it — Compact counted them within k*
//     of the list it was handed and they are within k* of the list it
//     kept — and its endpoints otherwise;
//   - on a laid-out array, the busiest owner serves no more elements than
//     under the endpoint gather of the same lists.
//
// It runs over 1×1, 1×4, 4×2 and 3×3 in process and on a 2×2 wire
// fabric, under every placement of lawPlacements as the layout, composed
// with scramble on /laid cases, with Offload on and off, and with few
// roots, under k* (six stars merging into two), and many, mostly over it
// (pairs of vertices merging into quadruples); over the whole matrix each
// path is taken. A list created not to shrink keeps its one Plan under the
// same assertion.
func TestStarsGather(t *testing.T) {
	const (
		n = 240
		m = 400
	)
	rng := xrand.New(0x57a55)
	eu, ev := make([]int64, m), make([]int64, m)
	for e := range eu {
		eu[e], ev[e] = rng.Int64n(n), rng.Int64n(n)
	}
	ends := func(lo, hi int64, ends []int64) {
		for e := lo; e < hi; e++ {
			ends[2*(e-lo)], ends[2*(e-lo)+1] = eu[e], ev[e]
		}
	}
	// Each shape is a star forest and the coarser one it merges into.
	// Every star's root is its smallest vertex, so D[0] = 0 throughout
	// and Offload's pin holds.
	shapes := []struct {
		name         string
		fine, coarse func(v int64) int64
	}{
		{"under", func(v int64) int64 { return v % 6 }, func(v int64) int64 { return v % 2 }},
		{"over", func(v int64) int64 { return v &^ 1 }, func(v int64) int64 { return v &^ 3 }},
	}
	geos := []struct {
		nodes, tpn int
		wire       bool
	}{{1, 1, false}, {1, 4, false}, {4, 2, false}, {3, 3, false}, {2, 2, true}}
	paths := [2]int{} // threads that took the endpoints, the roots

	for _, geo := range geos {
		for _, pl := range lawPlacements {
			for _, laid := range []bool{false, true} {
				for _, offload := range []bool{false, true} {
					for _, shape := range shapes {
						name := fmt.Sprintf("%dx%d/wire=%v/%s/offload=%v/%s", geo.nodes, geo.tpn, geo.wire, pl.name, offload, shape.name)
						if laid {
							name += "/laid"
						}
						t.Run(name, func(t *testing.T) {
							s := geo.nodes * geo.tpn
							pos := place(pl.owner, n, s)
							if laid {
								_, scr := scramble(n, 149)
								placed := pos
								pos = make([]int64, n)
								for v := range pos {
									pos[v] = placed[scr(int64(v))]
								}
							}
							lay := layout(pos)
							// The arrays as laid out: position pos[v] holds v's label.
							fine, coarse := make([]int64, n), make([]int64, n)
							for v := int64(0); v < n; v++ {
								fine[pos[v]], coarse[pos[v]] = shape.fine(v), shape.coarse(v)
							}
							opts := Base()
							opts.Offload = offload
							// Every node's Comms trace into the same counters.
							stars, endpoints := newServeLoads(s), newServeLoads(s)
							plans := trace.NewCollector(s)
							distinct, kept, limit := make([]int, s), make([]int, s), make([]int, s)

							rts := seatRuntimes(t, geo.nodes, geo.tpn, geo.wire)
							var wg sync.WaitGroup
							for _, rt := range rts {
								wg.Add(1)
								go func(rt *pgas.Runtime) {
									defer wg.Done()
									comm, ref, fixed := NewComm(rt), NewComm(rt), NewComm(rt)
									ref.SetTracer(endpoints)
									fixed.SetTracer(plans)
									d := rt.NewSharedArray("D", n)
									copy(d.Raw(), fine)
									live, static := comm.NewLiveEdges(true, false, true, lay), fixed.NewLiveEdges(false, false, true, lay)
									els, statics := make([]*EdgeList, s), make([]*EdgeList, s)
									rt.Run(func(th *pgas.Thread) {
										el := live.List(th, m, ends, false)
										el.Gather(th, d, opts, false)
										roots := map[int64]bool{}
										for j := 0; j < len(el.Labels); j += 2 {
											if el.Labels[j] != el.Labels[j+1] {
												roots[el.Labels[j]], roots[el.Labels[j+1]] = true, true
											}
										}
										handed := len(el.Ends)
										el.Compact(th)
										distinct[th.ID], kept[th.ID] = len(roots), len(el.Ends)
										limit[th.ID] = min(el.RootsLimit(th, handed), el.RootsLimit(th, len(el.Ends)))
										els[th.ID] = el
										statics[th.ID] = static.List(th, m, ends, false)
										statics[th.ID].Gather(th, d, opts, false)
									})
									copy(d.Raw(), coarse)
									comm.SetTracer(stars)
									rt.Run(func(th *pgas.Thread) {
										el, st := els[th.ID], statics[th.ID]
										want := make([]int64, len(el.Ends))
										ref.GetD(th, d, el.Ends, want, opts, nil)
										el.Gather(th, d, opts, false)
										st.Gather(th, d, opts, false)
										for _, l := range []*EdgeList{el, st} {
											for j, e := range l.Ends {
												if l.Labels[j] != coarse[e] {
													t.Errorf("thread %d: Labels[%d] = %d, D[%d] = %d", th.ID, j, l.Labels[j], e, coarse[e])
													break
												}
											}
										}
									})
								}(rt)
							}
							wg.Wait()

							for i := 0; i < s; i++ {
								want, roots := int64(kept[i]), distinct[i] <= limit[i]
								if roots {
									want = int64(distinct[i])
									paths[1]++
								} else {
									paths[0]++
								}
								if stars.offered[i] != want {
									t.Errorf("thread %d: offered %d requests, want %d (%d distinct roots among %d labels, k* %d)", i, stars.offered[i], want, distinct[i], kept[i], limit[i])
								}
							}
							if got, was := slices.Max(stars.served), slices.Max(endpoints.served); laid && got > was {
								t.Errorf("busiest owner served %d elements, %d under the endpoint gather", got, was)
							}
							if b, r := plans.PlanBuilds(), plans.PlanReuses(); b != 1 || r != 1 {
								t.Errorf("static stars list: %d plan builds, %d reuses per thread; want 1 and 1", b, r)
							}
						})
					}
				}
			}
		}
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Errorf("%d threads gathered at their endpoints, %d at their roots: the matrix does not test both paths", paths[0], paths[1])
	}
}

// TestOneRootEnd pins the roots path's end: when every answer of a roots
// gather names one root, every kept pair lies inside one tree, and the
// gather empties the list — Ends, Labels and IDs — rather than relabel it.
// Six stars merge into one rooted at 0. With six labels every thread's
// Compact prices the roots below its endpoints, and every list ends empty;
// a Compact after it has nothing left to drop. It runs over 1×1, 1×4, 4×2
// and 3×3, with and without a layout and Offload.
func TestOneRootEnd(t *testing.T) {
	const (
		n = 240
		m = 400
	)
	rng := xrand.New(0x0e4d)
	eu, ev := make([]int64, m), make([]int64, m)
	for e := range eu {
		eu[e], ev[e] = rng.Int64n(n), rng.Int64n(n)
	}
	ends := func(lo, hi int64, ends []int64) {
		for e := lo; e < hi; e++ {
			ends[2*(e-lo)], ends[2*(e-lo)+1] = eu[e], ev[e]
		}
	}
	for _, geo := range [][2]int{{1, 1}, {1, 4}, {4, 2}, {3, 3}} {
		for _, laid := range []bool{false, true} {
			for _, offload := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dx%d/laid=%v/offload=%v", geo[0], geo[1], laid, offload), func(t *testing.T) {
					rt := testRT(t, geo[0], geo[1])
					var lay Layout
					pos := func(v int64) int64 { return v }
					if laid {
						lay, pos = scramble(n, 149)
					}
					d := rt.NewSharedArray("D", n)
					for v := int64(0); v < n; v++ {
						d.StoreRaw(pos(v), v%6)
					}
					opts := Base()
					opts.Offload = offload
					live := NewComm(rt).NewLiveEdges(true, false, true, lay)
					s := rt.NumThreads()
					els, roots := make([]*EdgeList, s), make([]bool, s)
					rt.Run(func(th *pgas.Thread) {
						el := live.List(th, m, ends, true)
						el.Gather(th, d, opts, false)
						el.Compact(th)
						roots[th.ID] = el.viaRoots
						els[th.ID] = el
					})
					clear(d.Raw())
					rt.Run(func(th *pgas.Thread) {
						el := els[th.ID]
						el.Gather(th, d, opts, false)
						if len(el.Ends)+len(el.Labels)+len(el.IDs) != 0 {
							t.Errorf("thread %d: every root answers 0, yet the list keeps %d ends, %d labels, %d ids", th.ID, len(el.Ends), len(el.Labels), len(el.IDs))
						}
						el.Compact(th)
						if len(el.Ends) != 0 || len(el.IDs) != 0 {
							t.Errorf("thread %d: Compact kept %d pairs inside one tree", th.ID, len(el.IDs))
						}
					})
					for i, r := range roots {
						if !r {
							t.Errorf("thread %d gathers at its endpoints: its one-root end is not tested", i)
						}
					}
				})
			}
		}
	}
}

// TestRootsPrice holds Compact's price to what the engine charges. On a
// laid-out array of rooted stars merging into coarser ones, every thread
// gathers its kept pairs once at their roots and once at their endpoints,
// each path forced, from one barrier to the next: the path the price
// calls cheaper for every thread — the roots iff its distinct count is
// within its k* — must be the one whose gather advances the clocks less.
// It runs under Base, Optimized(2) and QuickSort options at 1×8, 3×1, 4×2
// and 16×8, on m/s vertices: few roots (eight stars merging into two)
// and as many as the hook buffers allow (every vertex its own star,
// merging in pairs: each thread's kept labels name about 0.43 of its
// endpoints). In the paper machine's 1 MiB cache the relabel's table is
// warm and the roots win every case; in an 8 KiB cache the table misses
// at its steady-state rate, and the endpoints win the "many" cases but at
// 16×8 and quicksort's at 3×1. The 8 KiB 4×2 quicksort "many" case is
// left out: its threads split on the price. Both gathers return D at the
// endpoints, and a roots gather in steady state allocates nothing.
func TestRootsPrice(t *testing.T) {
	const m = 1 << 15
	shapes := []struct {
		name         string
		fine, coarse func(v int64) int64
	}{
		{"few", func(v int64) int64 { return v % 8 }, func(v int64) int64 { return v % 2 }},
		{"many", func(v int64) int64 { return v }, func(v int64) int64 { return v &^ 1 }},
	}
	cols := []struct {
		name string
		opts func() *Options
	}{
		{"base", Base},
		{"optimized", func() *Options { return Optimized(2) }},
		{"quicksort", func() *Options { o := Base(); o.Sort = QuickSort; return o }},
	}
	// setup lays shape's two forests out over m/s vertices (scramble by
	// the prime 5003), builds a list of m random edges on the fine one and
	// compacts it; it returns the coarse array as laid out and each
	// thread's list and kept labels.
	setup := func(rt *pgas.Runtime, shape int, opts *Options) (d *pgas.SharedArray, coarse []int64, els []*EdgeList, kept [][]int64) {
		s := rt.NumThreads()
		n := int64(m / s)
		lay, pos := scramble(n, 5003)
		rng := xrand.New(0x9051e)
		eu, ev := make([]int64, m), make([]int64, m)
		for e := range eu {
			eu[e], ev[e] = rng.Int64n(n), rng.Int64n(n)
		}
		ends := func(lo, hi int64, ends []int64) {
			for e := lo; e < hi; e++ {
				ends[2*(e-lo)], ends[2*(e-lo)+1] = eu[e], ev[e]
			}
		}
		fine := make([]int64, n)
		coarse = make([]int64, n)
		for v := int64(0); v < n; v++ {
			fine[pos(v)], coarse[pos(v)] = shapes[shape].fine(v), shapes[shape].coarse(v)
		}
		d = rt.NewSharedArray("D", n)
		copy(d.Raw(), fine)
		live := NewComm(rt).NewLiveEdges(true, false, true, lay)
		els, kept = make([]*EdgeList, s), make([][]int64, s)
		rt.Run(func(th *pgas.Thread) {
			el := live.List(th, m, ends, false)
			el.Gather(th, d, opts, false)
			for j := 0; j < len(el.Labels); j += 2 {
				if el.Labels[j] != el.Labels[j+1] {
					kept[th.ID] = append(kept[th.ID], el.Labels[j], el.Labels[j+1])
				}
			}
			el.Compact(th)
			els[th.ID] = el
		})
		copy(d.Raw(), coarse)
		return d, coarse, els, kept
	}

	verdicts := [2]int{} // cases the price gave the endpoints, the roots
	for _, cache := range []int64{machine.PaperCluster().CacheBytes, 8 << 10} {
		for _, geo := range [][2]int{{1, 8}, {3, 1}, {4, 2}, {16, 8}} {
			for _, col := range cols {
				for shape := range shapes {
					if cache == 8<<10 && geo == [2]int{4, 2} && col.name == "quicksort" && shape == 1 {
						continue
					}
					name := fmt.Sprintf("%dx%d/%s/%s", geo[0], geo[1], col.name, shapes[shape].name)
					if cache != machine.PaperCluster().CacheBytes {
						name += fmt.Sprintf("/cache=%d", cache)
					}
					t.Run(name, func(t *testing.T) {
						cfg := machine.PaperCluster()
						cfg.Nodes, cfg.ThreadsPerNode, cfg.CacheBytes = geo[0], geo[1], cache
						rt, err := pgas.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						opts := col.opts()
						d, coarse, els, kept := setup(rt, shape, opts)
						s := rt.NumThreads()
						cheaper := make([]bool, s) // the price's verdict: the roots
						var rootsNS, endsNS float64
						rt.Run(func(th *pgas.Thread) {
							el := els[th.ID]
							distinct := map[int64]bool{}
							for _, v := range kept[th.ID] {
								distinct[v] = true
							}
							cheaper[th.ID] = len(distinct) <= el.RootsLimit(th, len(el.Ends))
							check := func(path string) {
								for j, e := range el.Ends {
									if el.Labels[j] != coarse[e] {
										t.Errorf("thread %d, %s path: Labels[%d] = %d, D[%d] = %d", th.ID, path, j, el.Labels[j], e, coarse[e])
										return
									}
								}
							}
							th.Barrier()
							t0 := th.Clock.NS
							el.ForcePath(true, kept[th.ID])
							el.Gather(th, d, opts, false)
							check("roots")
							th.Barrier()
							t1 := th.Clock.NS
							el.ForcePath(false, nil)
							el.Gather(th, d, opts, false)
							check("endpoint")
							th.Barrier()
							if th.ID == 0 {
								rootsNS, endsNS = t1-t0, th.Clock.NS-t1
							}
						})
						for i := 1; i < s; i++ {
							if cheaper[i] != cheaper[0] {
								t.Fatalf("threads 0 and %d disagree on the cheaper path: the case does not test what it says", i)
							}
						}
						if measured := rootsNS < endsNS; measured != cheaper[0] {
							t.Errorf("price calls the roots cheaper: %v; measured %.0f ns at the roots, %.0f ns at the endpoints", cheaper[0], rootsNS, endsNS)
						}
						if cheaper[0] {
							verdicts[1]++
						} else {
							verdicts[0]++
						}
					})
				}
			}
		}
	}

	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Errorf("the price gave %d cases to the endpoints, %d to the roots: the matrix does not rank both ways", verdicts[0], verdicts[1])
	}

	t.Run("allocs", func(t *testing.T) {
		rt := testRT(t, 1, 1)
		opts := Optimized(2)
		d, _, els, kept := setup(rt, 0, opts)
		rt.Run(func(th *pgas.Thread) {
			gather := func() {
				els[0].ForcePath(true, kept[0])
				els[0].Gather(th, d, opts, false)
			}
			gather() // warm the Comm's scratch
			if allocs := testing.AllocsPerRun(20, gather); allocs != 0 {
				t.Errorf("a roots gather allocates %v times in steady state", allocs)
			}
		})
	})
}
