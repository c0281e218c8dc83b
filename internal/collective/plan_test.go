package collective

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// These tests pin the exchange engine's Plan contract:
//
//   - building a plan and executing it once is indistinguishable — in
//     results AND simulated-time charges — from the one-shot collective
//     (charge invariance, the analogue of TestParallelismInvariance);
//   - re-executing an unchanged plan returns bit-identical results while
//     charging strictly less simulated time (the skipped grouping sort
//     and matrix publish), and performs zero scratch growths once warm;
//   - executing an unbuilt plan, or one against a differently sized or
//     differently partitioned array, fails fast; one against another array
//     of the planned distribution gathers that array at the planned indices.

// planVariants is the subset of option vectors worth re-running the plan
// laws under: the extremes, the slow-sort path, and the filtered build.
func planVariants() map[string]*Options {
	return map[string]*Options{
		"base":      Base(),
		"optimized": Optimized(4),
		"quicksort": {Sort: QuickSort, Circular: true},
		"offload":   {Offload: true},
	}
}

// planReqs builds deterministic per-thread request lists spreading over
// every owner.
func planReqs(s int, k int, n int64) [][]int64 {
	reqs := make([][]int64, s)
	for i := 0; i < s; i++ {
		r := xrand.New(uint64(7 + i))
		reqs[i] = make([]int64, k)
		for j := range reqs[i] {
			reqs[i][j] = r.Int64n(n)
		}
	}
	return reqs
}

// TestPlanChargeInvariance: PlanRequests + one GetD must equal the
// one-shot GetD in outputs and the simulated-time total — the rebuild path
// is the same code charged the same way, so a kernel can switch to plans
// without perturbing any figure.
func TestPlanChargeInvariance(t *testing.T) {
	const n = 1 << 12
	const k = 3000
	data := make([]int64, n)
	r := xrand.New(11)
	for i := range data {
		data[i] = r.Int64n(1 << 30)
	}
	data[0] = 0 // offload pins slot 0
	for _, geo := range lawGeometries {
		for name, opts := range planVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				run := func(usePlan bool) (simNS float64, outs [][]int64) {
					rt := testRT(t, geo.nodes, geo.tpn)
					s := rt.NumThreads()
					d := rt.NewSharedArray("D", n)
					copy(d.Raw(), data)
					comm := NewComm(rt)
					reqs := planReqs(s, k, n)
					outs = make([][]int64, s)
					// Plans are collective objects: one instance shared by
					// all threads, each publishing its own column.
					plan := comm.NewPlan()
					res := rt.Run(func(th *pgas.Thread) {
						o := *opts
						i := th.ID
						out := make([]int64, len(reqs[i]))
						if usePlan {
							plan.PlanRequests(th, d, reqs[i], &o, nil)
							plan.GetD(th, d, out)
						} else {
							comm.GetD(th, d, reqs[i], out, &o, nil)
						}
						outs[i] = out
					})
					return res.SimNS, outs
				}

				simA, outA := run(false)
				simB, outB := run(true)
				if simA != simB {
					t.Errorf("one-shot sim %v != plan rebuild sim %v", simA, simB)
				}
				for i := range outA {
					for j := range outA[i] {
						if outA[i][j] != outB[i][j] {
							t.Fatalf("thread %d output %d differs between one-shot and plan", i, j)
						}
					}
				}
			})
		}
	}
}

// TestQuickSortIsACharge: the grouping sort the options name changes the
// charge, never the layout. A CountSort build and a QuickSort build of
// the same request lists give every thread the same req, pos and offs and
// the same answers, and their build clocks differ only in CatSort, by
// chargeGroup(QuickSort) - chargeGroup(CountSort) on the thread's kept
// requests.
func TestQuickSortIsACharge(t *testing.T) {
	const n = 1 << 12
	data := make([]int64, n)
	r := xrand.New(13)
	for i := range data {
		data[i] = r.Int64n(1 << 30)
	}
	data[0] = 0 // offload pins slot 0
	type build struct {
		req, offs, out []int64
		pos            []int32
		k              int
		clk, group     sim.Clock // the build's clock; chargeGroup's alone
	}
	for _, geo := range []struct{ nodes, tpn int }{{4, 2}, {3, 1}} {
		for name, opts := range planVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				run := func(kind SortKind) []build {
					rt := testRT(t, geo.nodes, geo.tpn)
					s := rt.NumThreads()
					d := rt.NewSharedArray("D", n)
					copy(d.Raw(), data)
					reqs := planReqs(s, 3000, n)
					plan := NewComm(rt).NewPlan()
					builds := make([]build, s)
					rt.Run(func(th *pgas.Thread) {
						o := *opts
						o.Sort = kind
						b := &builds[th.ID]
						plan.PlanRequests(th, d, reqs[th.ID], &o, nil)
						b.clk = th.Clock
						pt := &plan.pts[th.ID]
						b.k = pt.k
						b.req = append([]int64(nil), pt.req[:pt.k]...)
						b.pos = append([]int32(nil), pt.pos[:pt.k]...)
						b.offs = append([]int64(nil), pt.offs...)
						chargeGroup(&b.group, th.Runtime().Model(), int64(pt.k), s, kind)
						b.out = make([]int64, len(reqs[th.ID]))
						plan.GetD(th, d, b.out)
					})
					return builds
				}
				count, quick := run(CountSort), run(QuickSort)
				for i := range count {
					c, q := count[i], quick[i]
					if !slices.Equal(c.req, q.req) || !slices.Equal(c.pos, q.pos) || !slices.Equal(c.offs, q.offs) {
						t.Fatalf("thread %d: QuickSort grouped its %d requests differently from CountSort", i, c.k)
					}
					if !slices.Equal(c.out, q.out) {
						t.Fatalf("thread %d: QuickSort answers differ from CountSort", i)
					}
					near := func(what string, got, want, scale float64) {
						if math.Abs(got-want) > 1e-9*math.Max(1, scale) {
							t.Errorf("thread %d: %s differs by %v, want %v", i, what, got, want)
						}
					}
					for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
						near(cat.String(), q.clk.ByCategory[cat]-c.clk.ByCategory[cat], q.group.ByCategory[cat]-c.group.ByCategory[cat], q.clk.ByCategory[cat])
					}
					near("cache misses", q.clk.CacheMisses-c.clk.CacheMisses, q.group.CacheMisses-c.group.CacheMisses, q.clk.CacheMisses)
					if c.clk.Messages != q.clk.Messages || c.clk.Bytes != q.clk.Bytes || c.clk.RemoteOps != q.clk.RemoteOps {
						t.Errorf("thread %d: traffic differs: CountSort %+v, QuickSort %+v", i, c.clk, q.clk)
					}
				}
			})
		}
	}
}

// TestPlanReuse: repeated executions of an unchanged plan must be
// bit-identical to one-shot collectives issued round by round (the array
// mutates between rounds; only the request vector is stable), and every
// reused round must charge strictly less simulated time than its rebuild
// counterpart.
func TestPlanReuse(t *testing.T) {
	const n = 1 << 12
	const rounds = 4
	for name, opts := range planVariants() {
		t.Run(name, func(t *testing.T) {
			rtA := testRT(t, 3, 2)
			rtB := testRT(t, 3, 2)
			s := rtA.NumThreads()
			mkData := func(rt *pgas.Runtime) *pgas.SharedArray {
				d := rt.NewSharedArray("D", n)
				r := xrand.New(21)
				for i := int64(1); i < n; i++ {
					d.Raw()[i] = r.Int64n(1 << 30)
				}
				return d
			}
			dA, dB := mkData(rtA), mkData(rtB)
			commA, commB := NewComm(rtA), NewComm(rtB)
			reqs := planReqs(s, 2500, n)
			outA := make([][]int64, s)
			outB := make([][]int64, s)
			for i := 0; i < s; i++ {
				outA[i] = make([]int64, len(reqs[i]))
				outB[i] = make([]int64, len(reqs[i]))
			}
			plan := commB.NewPlan()
			for round := 0; round < rounds; round++ {
				simA := rtA.Run(func(th *pgas.Thread) {
					o := *opts
					commA.GetD(th, dA, reqs[th.ID], outA[th.ID], &o, nil)
				}).SimNS
				simB := rtB.Run(func(th *pgas.Thread) {
					if round == 0 {
						o := *opts
						plan.PlanRequests(th, dB, reqs[th.ID], &o, nil)
					}
					plan.GetD(th, dB, outB[th.ID])
				}).SimNS
				for i := range outA {
					for j := range outA[i] {
						if outA[i][j] != outB[i][j] {
							t.Fatalf("round %d: thread %d output %d differs (one-shot %d, reused plan %d)",
								round, i, j, outA[i][j], outB[i][j])
						}
					}
				}
				if round == 0 {
					if simA != simB {
						t.Fatalf("build round: one-shot sim %v != plan sim %v", simA, simB)
					}
				} else if simB >= simA {
					t.Fatalf("round %d: reused plan sim %v not strictly below rebuild sim %v", round, simB, simA)
				}
				// Mutate both arrays identically; the plan must track the
				// array, not its build-time snapshot (slot 0 stays pinned
				// for the offload variant).
				for i := int64(1); i < n; i++ {
					dA.Raw()[i] += 3*i + 1
					dB.Raw()[i] += 3*i + 1
				}
			}
		})
	}
}

// TestPlanSteadyStateNoGrowth: once a plan and its comm are warm,
// repeated executions perform zero scratch growths — the reuse path stays
// on the allocation-free steady state the benchmarks pin.
func TestPlanSteadyStateNoGrowth(t *testing.T) {
	const n = 1 << 12
	rt := testRT(t, 2, 2)
	s := rt.NumThreads()
	d := rt.NewSharedArray("D", n)
	d.FillIdentity()
	comm := NewComm(rt)
	reqs := planReqs(s, 2000, n)
	outs := make([][]int64, s)
	for i := range outs {
		outs[i] = make([]int64, len(reqs[i]))
	}
	plan := comm.NewPlan()
	rt.Run(func(th *pgas.Thread) {
		plan.PlanRequests(th, d, reqs[th.ID], Optimized(4), nil)
		plan.GetD(th, d, outs[th.ID])
	})
	var warm int64
	for i := range comm.ts {
		warm += comm.ts[i].growths
	}
	for round := 0; round < 5; round++ {
		rt.Run(func(th *pgas.Thread) {
			plan.GetD(th, d, outs[th.ID])
		})
	}
	var after int64
	for i := range comm.ts {
		after += comm.ts[i].growths
	}
	if after != warm {
		t.Fatalf("steady-state plan executions grew scratch: %d new growths", after-warm)
	}
}

// TestPlanGuards: the engine fails fast on misuse — executing an unbuilt
// plan, and executing against a differently-sized array.
func TestPlanGuards(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(comm *Comm, th *pgas.Thread, d, other *pgas.SharedArray)
	}{
		{"unbuilt", "unbuilt plan", func(comm *Comm, th *pgas.Thread, d, other *pgas.SharedArray) {
			comm.NewPlan().GetD(th, d, nil)
		}},
		{"wrong-array", "planned for length", func(comm *Comm, th *pgas.Thread, d, other *pgas.SharedArray) {
			p := comm.NewPlan()
			p.PlanRequests(th, d, []int64{1}, Base(), nil)
			p.GetD(th, other, make([]int64, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRT(t, 1, 1)
			d := rt.NewSharedArray("D", 10)
			other := rt.NewSharedArray("Other", 20)
			comm := NewComm(rt)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("misuse did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %q does not mention %q", fmt.Sprint(r), tc.want)
				}
			}()
			rt.Run(func(th *pgas.Thread) { tc.run(comm, th, d, other) })
		})
	}
}

// TestPlanPartitionGuard: a plan's grouped layout names owners by block,
// and every array of one length has the same blocks, so a plan built
// against one array serves another of the same length — the reuse every
// same-index gather of several arrays relies on.
func TestPlanPartitionGuard(t *testing.T) {
	const n = 64
	t.Run("block-to-block", func(t *testing.T) {
		rt := testRT(t, 2, 2)
		d := rt.NewSharedArray("D", n)
		other := rt.NewSharedArray("Other", n)
		for i := int64(0); i < n; i++ {
			other.StoreRaw(i, 3*i+1)
		}
		reqs := planReqs(rt.NumThreads(), 50, n)
		comm := NewComm(rt)
		p := comm.NewPlan()
		rt.Run(func(th *pgas.Thread) {
			out := make([]int64, len(reqs[th.ID]))
			p.PlanRequests(th, d, reqs[th.ID], Base(), nil) // no offload: D[0] is no pin here
			p.GetD(th, other, out)
			for j, ix := range reqs[th.ID] {
				if out[j] != 3*ix+1 {
					t.Errorf("thread %d: Other[%d] = %d, want %d", th.ID, ix, out[j], 3*ix+1)
					return
				}
			}
		})
	})
}

// sortedCopy returns a sorted copy of s (multiset comparison helper for
// the exchange laws).
func sortedCopy(s []int64) []int64 {
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}
