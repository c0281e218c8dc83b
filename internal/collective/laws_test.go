package collective

import (
	"fmt"
	"strings"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// These property tests pin the collectives' algebraic laws — the
// contracts every kernel builds on — under every documented Options
// combination and several machine geometries:
//
//   - GetD after SetD reads back exactly what was written (roundtrip);
//   - SetDMin equals the sequential min-scatter oracle, including on
//     duplicate-heavy request lists where many writers race per index;
//   - a warm IDCache is honored, and a changed index list is safe once the
//     cache is reset to its zero value.

// lawGeometries exercises single-thread, single-node-SMP, all-remote,
// and mixed ownership.
var lawGeometries = []struct{ nodes, tpn int }{{1, 1}, {1, 4}, {4, 1}, {3, 2}}

// lawPartitions crosses the laws with every partition scheme. The tests'
// owner oracle is d.Owner itself, so identical assertions pin routing,
// serving, and delivery under scattered ownership too.
var lawPartitions = []struct {
	name string
	spec func(n int64) pgas.PartitionSpec
}{
	{"block", func(int64) pgas.PartitionSpec { return pgas.PartitionSpec{Kind: pgas.SchemeBlock} }},
	{"cyclic", func(int64) pgas.PartitionSpec { return pgas.PartitionSpec{Kind: pgas.SchemeCyclic} }},
	{"hub", func(n int64) pgas.PartitionSpec {
		return pgas.PartitionSpec{Kind: pgas.SchemeHub, Hubs: []int64{0, 7, n / 2, n - 1, n / 3}}
	}},
}

// TestSetDGetDRoundtrip: thread-disjoint scatters followed by a gather of
// the same indices must return exactly the written values, for every
// option vector.
func TestSetDGetDRoundtrip(t *testing.T) {
	const n = 150
	for _, geo := range lawGeometries {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				rng := xrand.New(77).Split(uint64(s))
				// Thread i writes indices congruent to i mod s, so
				// writers never race and the expected array is exact.
				// Avoid index 0 under Offload: its value is pinned.
				idxs := make([][]int64, s)
				vals := make([][]int64, s)
				want := make([]int64, n)
				for i := 0; i < s; i++ {
					k := 1 + int(rng.Int64n(120))
					for j := 0; j < k; j++ {
						ix := (rng.Int64n(n/int64(s)))*int64(s) + int64(i)
						if ix >= n || (ix == 0 && opts.Offload) {
							continue
						}
						v := int64(rng.Uint64n(1 << 40))
						idxs[i] = append(idxs[i], ix)
						vals[i] = append(vals[i], v)
						want[ix] = v
					}
				}
				for _, part := range lawPartitions {
					t.Run(part.name, func(t *testing.T) {
						d := rt.NewSharedArrayPart("D", n, part.spec(n))
						comm := NewComm(rt)
						outs := make([][]int64, s)
						rt.Run(func(th *pgas.Thread) {
							o := *opts // per-thread copy: kernels share one Options value
							comm.SetD(th, d, idxs[th.ID], vals[th.ID], &o, nil)
							out := make([]int64, len(idxs[th.ID]))
							comm.GetD(th, d, idxs[th.ID], out, &o, nil)
							outs[th.ID] = out
						})
						for i := int64(0); i < n; i++ {
							if got := d.Raw()[i]; got != want[i] {
								t.Fatalf("D[%d] = %d after scatter, want %d", i, got, want[i])
							}
						}
						for i := range idxs {
							for j, ix := range idxs[i] {
								if outs[i][j] != want[ix] {
									t.Fatalf("thread %d read D[%d] = %d, want %d", i, ix, outs[i][j], want[ix])
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestSetDMinMatchesMinScatter: concurrent min-writes over duplicate-heavy
// index lists must equal the sequential min-scatter oracle, for every
// option vector. A tiny index alphabet forces many threads (and many
// entries within one thread) to contend on the same slots — the CRCW
// priority-write case the paper's kernels rely on.
func TestSetDMinMatchesMinScatter(t *testing.T) {
	const n = 120
	const initVal = int64(1) << 40
	for _, geo := range lawGeometries {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				rng := xrand.New(99).Split(uint64(s))
				alphabet := 1 + rng.Int64n(16) // duplicate-heavy pool
				idxs := make([][]int64, s)
				vals := make([][]int64, s)
				want := make([]int64, n)
				for i := range want {
					want[i] = initVal
				}
				want[0] = 0 // offload pins slot 0 at the configured minimum
				for i := 0; i < s; i++ {
					k := int(rng.Int64n(250))
					idxs[i] = make([]int64, k)
					vals[i] = make([]int64, k)
					for j := 0; j < k; j++ {
						ix := rng.Int64n(n)
						if rng.Intn(2) == 0 {
							ix = rng.Int64n(alphabet)
						}
						v := 1 + rng.Int64n(1<<30)
						idxs[i][j] = ix
						vals[i][j] = v
						if ix != 0 && v < want[ix] {
							want[ix] = v
						}
					}
				}
				for _, part := range lawPartitions {
					t.Run(part.name, func(t *testing.T) {
						d := rt.NewSharedArrayPart("D", n, part.spec(n))
						for i := int64(1); i < n; i++ {
							d.Raw()[i] = initVal
						}
						comm := NewComm(rt)
						rt.Run(func(th *pgas.Thread) {
							o := *opts
							comm.SetDMin(th, d, idxs[th.ID], vals[th.ID], &o, nil)
						})
						for i := int64(0); i < n; i++ {
							if got := d.Raw()[i]; got != want[i] {
								t.Fatalf("D[%d] = %d, min-scatter oracle says %d", i, got, want[i])
							}
						}
					})
				}
			})
		}
	}
}

// TestIDCacheInvalidation: a warm IDCache must keep GetD exact across
// repeated calls with the same index list, and resetting it to the zero
// value must make a *different* index list safe with the same cache
// variable. (Without the reset, stale owner keys would group the new
// indices wrongly.)
func TestIDCacheInvalidation(t *testing.T) {
	const n = 200
	rt := testRT(t, 3, 2)
	s := rt.NumThreads()
	opts := &Options{CachedIDs: true}
	rng := xrand.New(5)
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63()
	}
	first := make([][]int64, s)
	second := make([][]int64, s)
	for i := 0; i < s; i++ {
		k := 40 + int(rng.Int64n(80))
		first[i] = make([]int64, k)
		for j := range first[i] {
			first[i][j] = rng.Int64n(n)
		}
		k2 := 30 + int(rng.Int64n(90)) // different length AND content
		second[i] = make([]int64, k2)
		for j := range second[i] {
			second[i][j] = rng.Int64n(n)
		}
	}
	d := rt.NewSharedArray("D", n)
	copy(d.Raw(), data)
	comm := NewComm(rt)
	type result struct{ warm, fresh []int64 }
	results := make([]result, s)
	rt.Run(func(th *pgas.Thread) {
		o := *opts
		var cache IDCache
		// Populate, then reuse warm with the identical list.
		out := make([]int64, len(first[th.ID]))
		comm.GetD(th, d, first[th.ID], out, &o, &cache)
		warm := make([]int64, len(first[th.ID]))
		comm.GetD(th, d, first[th.ID], warm, &o, &cache)
		// Switch lists: reset first, as the contract requires.
		cache = IDCache{}
		fresh := make([]int64, len(second[th.ID]))
		comm.GetD(th, d, second[th.ID], fresh, &o, &cache)
		results[th.ID] = result{warm: warm, fresh: fresh}
	})
	for i := 0; i < s; i++ {
		for j, ix := range first[i] {
			if results[i].warm[j] != data[ix] {
				t.Fatalf("warm cache: thread %d read D[%d] = %d, want %d", i, ix, results[i].warm[j], data[ix])
			}
		}
		for j, ix := range second[i] {
			if results[i].fresh[j] != data[ix] {
				t.Fatalf("after reset: thread %d read D[%d] = %d, want %d", i, ix, results[i].fresh[j], data[ix])
			}
		}
	}
}

// TestExchangeMatchesOwnerPartition: the personalized all-to-all must
// deliver to each thread exactly the multiset of items owned by it under
// the array's distribution — no item lost, duplicated, or misrouted —
// for every option vector. (Exchange routes payloads, not array indices,
// so Offload does not filter: item 0 travels like any other.)
func TestExchangeMatchesOwnerPartition(t *testing.T) {
	const n = 240
	for _, geo := range lawGeometries {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				rng := xrand.New(314).Split(uint64(s))
				items := make([][]int64, s)
				for i := 0; i < s; i++ {
					k := int(rng.Int64n(300))
					items[i] = make([]int64, k)
					for j := range items[i] {
						items[i][j] = rng.Int64n(n)
					}
				}
				for _, part := range lawPartitions {
					t.Run(part.name, func(t *testing.T) {
						d := rt.NewSharedArrayPart("D", n, part.spec(n))
						comm := NewComm(rt)
						want := make([][]int64, s)
						for i := 0; i < s; i++ {
							for _, x := range items[i] {
								o := d.Owner(x)
								want[o] = append(want[o], x)
							}
						}
						got := make([][]int64, s)
						rt.Run(func(th *pgas.Thread) {
							o := *opts
							recv := comm.Exchange(th, d, items[th.ID], &o, nil)
							got[th.ID] = append([]int64(nil), recv...)
						})
						for i := 0; i < s; i++ {
							g, w := sortedCopy(got[i]), sortedCopy(want[i])
							if len(g) != len(w) {
								t.Fatalf("thread %d received %d items, owns %d", i, len(g), len(w))
							}
							for j := range g {
								if g[j] != w[j] {
									t.Fatalf("thread %d received multiset differs from its owner partition at rank %d: %d vs %d",
										i, j, g[j], w[j])
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestExchangePairsStayAligned: every delivered (item, value) pair must
// be one that some thread sent — values ride with their items through the
// grouping sort and the route — and the item multiset per owner must
// match plain Exchange's. Values are a deterministic function of the item
// so any cross-pairing is visible.
func TestExchangePairsStayAligned(t *testing.T) {
	const n = 200
	pairVal := func(item int64) int64 { return item*31 + 7 }
	for _, geo := range lawGeometries {
		rt := testRT(t, geo.nodes, geo.tpn)
		s := rt.NumThreads()
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("%dx%d/%s", geo.nodes, geo.tpn, name), func(t *testing.T) {
				rng := xrand.New(159).Split(uint64(s))
				items := make([][]int64, s)
				vals := make([][]int64, s)
				for i := 0; i < s; i++ {
					k := int(rng.Int64n(250))
					items[i] = make([]int64, k)
					vals[i] = make([]int64, k)
					for j := range items[i] {
						items[i][j] = rng.Int64n(n)
						vals[i][j] = pairVal(items[i][j])
					}
				}
				for _, part := range lawPartitions {
					t.Run(part.name, func(t *testing.T) {
						d := rt.NewSharedArrayPart("D", n, part.spec(n))
						comm := NewComm(rt)
						want := make([][]int64, s)
						for i := 0; i < s; i++ {
							for _, x := range items[i] {
								want[d.Owner(x)] = append(want[d.Owner(x)], x)
							}
						}
						gotItems := make([][]int64, s)
						rt.Run(func(th *pgas.Thread) {
							o := *opts
							ri, rv := comm.ExchangePairs(th, d, items[th.ID], vals[th.ID], &o, nil)
							if len(ri) != len(rv) {
								t.Errorf("thread %d: %d items but %d values delivered", th.ID, len(ri), len(rv))
							}
							for j := range ri {
								if rv[j] != pairVal(ri[j]) {
									t.Errorf("thread %d pair %d: item %d arrived with value %d, sent with %d",
										th.ID, j, ri[j], rv[j], pairVal(ri[j]))
								}
							}
							gotItems[th.ID] = append([]int64(nil), ri...)
						})
						for i := 0; i < s; i++ {
							g, w := sortedCopy(gotItems[i]), sortedCopy(want[i])
							if len(g) != len(w) {
								t.Fatalf("thread %d received %d pairs, owns %d items", i, len(g), len(w))
							}
							for j := range g {
								if g[j] != w[j] {
									t.Fatalf("thread %d pair-item multiset differs from owner partition at rank %d", i, j)
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestRequestValidation: out-of-range request indices must fail fast with
// a panic naming the collective, the bad index, and the array — not
// corrupt memory or misroute silently.
func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray)
	}{
		{"GetD/negative", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			out := make([]int64, 1)
			comm.GetD(th, d, []int64{-1}, out, Base(), nil)
		}},
		{"GetD/too-large", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			out := make([]int64, 1)
			comm.GetD(th, d, []int64{1 << 50}, out, Base(), nil)
		}},
		{"SetD/negative", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			comm.SetD(th, d, []int64{-7}, []int64{1}, Base(), nil)
		}},
		{"SetDMin/too-large", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			comm.SetDMin(th, d, []int64{9999999}, []int64{1}, Base(), nil)
		}},
		// Lists that go through the request filter are validated in its pass.
		{"GetD/offload/too-large", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			out := make([]int64, 3)
			comm.GetD(th, d, []int64{0, 4, 10}, out, Optimized(2), nil)
		}},
		{"GetDCombined/negative", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			out := make([]int64, 3)
			comm.GetDCombined(th, d, []int64{3, 3, -1}, out, Base())
		}},
		{"PlanRequests/offload/negative", func(comm *Comm, th *pgas.Thread, d *pgas.SharedArray) {
			comm.NewPlan().PlanRequests(th, d, []int64{2, -5}, Optimized(2), nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRT(t, 1, 1)
			d := rt.NewSharedArray("Label", 10)
			comm := NewComm(rt)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic for out-of-range request index")
				}
				msg := fmt.Sprint(r)
				kind, _, _ := strings.Cut(tc.name, "/")
				if kind == "GetDCombined" {
					kind = "GetD"
				}
				if !strings.Contains(msg, "collective: "+kind+" index ") || !strings.Contains(msg, "out of range [0,10) in Label") {
					t.Fatalf("panic message %q does not name the collective, the bound and the array", msg)
				}
			}()
			rt.Run(func(th *pgas.Thread) { tc.run(comm, th, d) })
		})
	}
}
