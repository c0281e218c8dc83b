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

// TestLiveEdgesLaws pins the list's contract under every partition scheme,
// with and without Offload:
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

	for _, part := range lawPartitions {
		for _, offload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/offload=%v", part.name, offload), func(t *testing.T) {
				rt := testRT(t, 3, 2)
				opts := Base()
				opts.Offload = offload // index 0, whose label stays 0 throughout
				d := rt.NewSharedArrayPart("D", n, part.spec(n))
				d.FillIdentity()
				comm, ref := NewComm(rt), NewComm(rt) // ref answers the one-shot GetDs untraced
				counts := trace.NewCollector(rt.NumThreads())
				comm.SetTracer(counts)
				static, shrinking := comm.NewLiveEdges(false, false, false, nil), comm.NewLiveEdges(true, false, false, nil)
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
				d.FillIdentity()
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
							if el.Ends[2*j] != eu[e] || el.Ends[2*j+1] != ev[e] {
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

// TestStarsGather pins the roots path of a list created to shrink under
// the stars assertion. d holds a forest of rooted stars; the list gathers
// and compacts; the stars merge into fewer, larger ones; the list gathers
// again:
//
//   - Labels[j] == D[Ends[j]] exactly, whichever path the thread took;
//   - a thread offers its GetD the distinct roots its kept pairs named
//     exactly when s·distinct <= len(Ends), and its endpoints otherwise;
//   - the busiest owner serves no more elements than under the endpoint
//     gather of the same lists.
//
// It runs over 1×1, 1×4, 4×2 and 3×3 in process under every partition
// scheme and on a 2×2 wire fabric (block only), with Offload on and off,
// and with the roots under the bound (six stars merging into two) and
// over it (pairs of vertices merging into quadruples). A list created not
// to shrink keeps its one Plan under the same assertion.
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

	for _, geo := range geos {
		for _, part := range lawPartitions {
			if geo.wire && part.name != "block" {
				continue
			}
			for _, offload := range []bool{false, true} {
				for _, shape := range shapes {
					t.Run(fmt.Sprintf("%dx%d/wire=%v/%s/offload=%v/%s", geo.nodes, geo.tpn, geo.wire, part.name, offload, shape.name), func(t *testing.T) {
						s := geo.nodes * geo.tpn
						fine, coarse := make([]int64, n), make([]int64, n)
						for v := range fine {
							fine[v], coarse[v] = shape.fine(int64(v)), shape.coarse(int64(v))
						}
						opts := Base()
						opts.Offload = offload
						// Every node's Comms trace into the same counters.
						stars, endpoints := newServeLoads(s), newServeLoads(s)
						plans := trace.NewCollector(s)
						distinct, kept := make([]int, s), make([]int, s)

						rts := seatRuntimes(t, geo.nodes, geo.tpn, geo.wire)
						var wg sync.WaitGroup
						for _, rt := range rts {
							wg.Add(1)
							go func(rt *pgas.Runtime) {
								defer wg.Done()
								comm, ref, fixed := NewComm(rt), NewComm(rt), NewComm(rt)
								ref.SetTracer(endpoints)
								fixed.SetTracer(plans)
								d := rt.NewSharedArrayPart("D", n, part.spec(n))
								copy(d.Raw(), fine)
								live, static := comm.NewLiveEdges(true, false, true, nil), fixed.NewLiveEdges(false, false, true, nil)
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
									el.Compact(th)
									distinct[th.ID], kept[th.ID] = len(roots), len(el.Ends)
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
							roots := s*distinct[i] <= kept[i]
							if want := shape.name == "under" || s == 1; roots != want {
								t.Fatalf("thread %d: %d distinct roots among %d labels on %d threads: the case does not test what it says", i, distinct[i], kept[i], s)
							}
							want := int64(kept[i])
							if roots {
								want = int64(distinct[i])
							}
							if stars.offered[i] != want {
								t.Errorf("thread %d: offered %d requests, want %d (%d distinct roots among %d labels)", i, stars.offered[i], want, distinct[i], kept[i])
							}
						}
						if got, was := slices.Max(stars.served), slices.Max(endpoints.served); got > was {
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
