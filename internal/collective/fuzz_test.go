package collective

import (
	"slices"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

// FuzzPlanRequests drives the exchange engine's plan path with arbitrary
// request vectors, geometries, partition schemes (block, cyclic, hub),
// option bits and ops, so the build's key pass — index check, offload and
// combine filter, owner key — runs on every scheme. It pins the plan
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
		part := lawPartitions[int(shape)%len(lawPartitions)]
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

		d := rt.NewSharedArrayPart("D", n, part.spec(n))
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
						t.Errorf("%s thread %d: one-shot gather[%d] = %d, want D[%d] = %d", part.name, th.ID, j, oneShot[j], req[j], want)
						return
					}
					if first[j] != want {
						t.Errorf("%s thread %d: plan GetD[%d] = %d, want %d", part.name, th.ID, j, first[j], want)
						return
					}
					if second[j] != first[j] {
						t.Errorf("%s thread %d: plan re-exec[%d] = %d, first = %d (reuse not bit-identical)", part.name, th.ID, j, second[j], first[j])
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
			t.Fatalf("%s: scatter op %d differs from the sequential scatter", part.name, op)
		}
	})
}
