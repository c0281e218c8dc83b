package collective

import (
	"fmt"
	"slices"
	"testing"

	"pgasgraph/internal/pgas"
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
				static, shrinking := comm.NewLiveEdges(false, false), comm.NewLiveEdges(true, false)
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
