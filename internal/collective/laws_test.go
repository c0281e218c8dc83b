package collective

import (
	"fmt"
	"slices"
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

// lawPlacements crosses the laws with three placements of the requested
// indices over the block-owned array. owner(i, n, s) names the thread whose
// block index i goes to: block is the identity, cyclic deals i to thread
// i % s, and hub deals the five listed hubs round-robin and leaves every
// other index in its own block. A test maps its request lists through
// place's positions and reads D back at pos[i], so identical assertions pin
// routing, serving and delivery when the requests reach scattered owners
// too. The owner oracle is d.Owner itself.
var lawPlacements = []struct {
	name  string
	owner func(i, n int64, s int) int
}{
	{"block", blockOf},
	{"cyclic", func(i, _ int64, s int) int { return int(i % int64(s)) }},
	{"hub", func(i, n int64, s int) int {
		if h := slices.Index([]int64{0, 7, n / 2, n - 1, n / 3}, i); h >= 0 {
			return h % s
		}
		return blockOf(i, n, s)
	}},
}

// blockOf is the thread whose block holds index i of an n-element array
// over s threads.
func blockOf(i, n int64, s int) int { return int(i / ((n + int64(s) - 1) / int64(s))) }

// place turns a placement into positions: in ascending i, index i takes
// the next free position of block owner(i, n, s), and an index whose
// target block is full spills into the lowest free position. The result is
// a bijection on [0, n) with pos(0) = 0 — every placement sends index 0 to
// thread 0 — so Offload's pin holds.
func place(owner func(i, n int64, s int) int, n int64, s int) []int64 {
	blk := (n + int64(s) - 1) / int64(s)
	pos, next, used := make([]int64, n), make([]int64, s), make([]bool, n)
	for t := range next {
		next[t] = int64(t) * blk
	}
	var spill []int64
	for i := int64(0); i < n; i++ {
		if t := owner(i, n, s); next[t] < min(int64(t+1)*blk, n) {
			pos[i], used[next[t]] = next[t], true
			next[t]++
		} else {
			spill = append(spill, i)
		}
	}
	free := int64(0)
	for _, i := range spill {
		for used[free] {
			free++
		}
		pos[i], used[free] = free, true
	}
	return pos
}

// at maps request lists through pos.
func at(pos []int64, lists [][]int64) [][]int64 {
	out := make([][]int64, len(lists))
	for i, l := range lists {
		out[i] = make([]int64, len(l))
		for j, ix := range l {
			out[i][j] = pos[ix]
		}
	}
	return out
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
				for _, pl := range lawPlacements {
					t.Run(pl.name, func(t *testing.T) {
						pos := place(pl.owner, n, s)
						placed := at(pos, idxs)
						d := rt.NewSharedArray("D", n)
						comm := NewComm(rt)
						outs := make([][]int64, s)
						rt.Run(func(th *pgas.Thread) {
							o := *opts // per-thread copy: kernels share one Options value
							comm.SetD(th, d, placed[th.ID], vals[th.ID], &o, nil)
							out := make([]int64, len(placed[th.ID]))
							comm.GetD(th, d, placed[th.ID], out, &o, nil)
							outs[th.ID] = out
						})
						for i := int64(0); i < n; i++ {
							if got := d.Raw()[pos[i]]; got != want[i] {
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
				for _, pl := range lawPlacements {
					t.Run(pl.name, func(t *testing.T) {
						pos := place(pl.owner, n, s)
						placed := at(pos, idxs)
						d := rt.NewSharedArray("D", n)
						for i := int64(1); i < n; i++ {
							d.Raw()[i] = initVal
						}
						comm := NewComm(rt)
						rt.Run(func(th *pgas.Thread) {
							o := *opts
							comm.SetDMin(th, d, placed[th.ID], vals[th.ID], &o, nil)
						})
						for i := int64(0); i < n; i++ {
							if got := d.Raw()[pos[i]]; got != want[i] {
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
				for _, pl := range lawPlacements {
					t.Run(pl.name, func(t *testing.T) {
						placed := at(place(pl.owner, n, s), items)
						d := rt.NewSharedArray("D", n)
						comm := NewComm(rt)
						want := make([][]int64, s)
						for i := 0; i < s; i++ {
							for _, x := range placed[i] {
								o := d.Owner(x)
								want[o] = append(want[o], x)
							}
						}
						got := make([][]int64, s)
						rt.Run(func(th *pgas.Thread) {
							o := *opts
							recv := comm.Exchange(th, d, placed[th.ID], &o, nil)
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
// so any cross-pairing is visible. Besides the random draw, each placement
// runs an input where thread 0 passes nil items and nil values while its
// peers send pairs: whether a call routes pairs is its call site's, not
// its arguments', so every receiver still gets aligned pairs.
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
				for i := 0; i < s; i++ {
					k := int(rng.Int64n(250))
					items[i] = make([]int64, k)
					for j := range items[i] {
						items[i][j] = rng.Int64n(n)
					}
				}
				for _, pl := range lawPlacements {
					t.Run(pl.name, func(t *testing.T) {
						drawn := at(place(pl.owner, n, s), items)
						silent := slices.Clone(drawn)
						silent[0] = nil
						for r, placed := range [][][]int64{drawn, silent} {
							in := []string{"drawn", "thread 0 silent"}[r]
							vals := make([][]int64, s)
							d := rt.NewSharedArray("D", n)
							comm := NewComm(rt)
							want := make([][]int64, s)
							for i := 0; i < s; i++ {
								for _, x := range placed[i] {
									vals[i] = append(vals[i], pairVal(x))
									want[d.Owner(x)] = append(want[d.Owner(x)], x)
								}
							}
							gotItems := make([][]int64, s)
							rt.Run(func(th *pgas.Thread) {
								o := *opts
								ri, rv := comm.ExchangePairs(th, d, placed[th.ID], vals[th.ID], &o, nil)
								if len(ri) != len(rv) {
									t.Errorf("%s: thread %d: %d items but %d values delivered", in, th.ID, len(ri), len(rv))
								}
								for j := range ri {
									if rv[j] != pairVal(ri[j]) {
										t.Errorf("%s: thread %d pair %d: item %d arrived with value %d, sent with %d",
											in, th.ID, j, ri[j], rv[j], pairVal(ri[j]))
									}
								}
								gotItems[th.ID] = append([]int64(nil), ri...)
							})
							for i := 0; i < s; i++ {
								g, w := sortedCopy(gotItems[i]), sortedCopy(want[i])
								if len(g) != len(w) {
									t.Fatalf("%s: thread %d received %d pairs, owns %d items", in, i, len(g), len(w))
								}
								for j := range g {
									if g[j] != w[j] {
										t.Fatalf("%s: thread %d pair-item multiset differs from owner partition at rank %d", in, i, j)
									}
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
