package collective

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// TestGatherPriceIsTheCharge holds gatherPrice to the engine's own charge,
// not only to its ranking (TestRootsPrice). At 1 × 1 and 1 × 8 every thread
// asks a one-shot GetD for k distinct indices, k/s at each owner and none
// that another thread asks, so each owner serves k requests, all first
// touches — the counts the price predicts. The clock's advance over the
// call, waiting aside, must be the price plus the per-call terms it leaves
// out: two barriers, the matrix publish, the count sort's op per owner and
// each segment's memory latency, pull and push. The sums reassociate
// (s segments against one word's price times k), hence the relative
// tolerance. Serve blocks fit
// the cache in one column and exceed it in the other, so Optimized(2)'s
// access is priced both direct and blocked.
func TestGatherPriceIsTheCharge(t *testing.T) {
	const k, nb = 2048, 4096
	cols := []struct {
		name string
		opts func() *Options
	}{
		{"base", Base},
		{"optimized", func() *Options { return Optimized(2) }},
		{"quicksort", func() *Options { o := Base(); o.Sort = QuickSort; return o }},
	}
	for _, tpn := range []int{1, 8} {
		for _, cache := range []int64{1 << 20, 8 << 10} {
			for _, col := range cols {
				t.Run(fmt.Sprintf("1x%d/cache=%d/%s", tpn, cache, col.name), func(t *testing.T) {
					cfg := machine.PaperCluster()
					cfg.Nodes, cfg.ThreadsPerNode, cfg.CacheBytes = 1, tpn, cache
					rt, err := pgas.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m, s, opts := rt.Model(), rt.NumThreads(), col.opts()
					perCall := 2*m.Barrier(s) + float64(s)*m.Ops(2) + float64(2*s)*cfg.MemLatency
					if opts.Sort == CountSort {
						perCall += m.Ops(int64(s))
					}
					want := gatherPrice(m, k, nb, s, tpn, opts) + perCall
					comm := NewComm(rt)
					d := rt.NewSharedArray("D", int64(s)*nb)
					d.FillIdentity()
					for i := 0; i < s; i++ {
						if lo, hi := d.ThreadCover(i); hi-lo != nb {
							t.Fatalf("thread %d serves %d words, want %d", i, hi-lo, nb)
						}
					}
					per := int64(k / s)
					rt.Run(func(th *pgas.Thread) {
						idx, out := make([]int64, k), make([]int64, k)
						for j := range idx {
							owner, at := int64(j%s), int64(j/s)
							idx[j] = owner*nb + 1 + int64(th.ID)*per + at
						}
						before := th.Clock
						comm.GetD(th, d, idx, out, opts, nil)
						waited := th.Clock.ByCategory[sim.CatWait] - before.ByCategory[sim.CatWait]
						if got := th.Clock.NS - before.NS - waited; math.Abs(got-want) > 1e-9*want {
							t.Errorf("thread %d: GetD of %d charged %.6f ns; price plus per-call terms %.6f", th.ID, k, got, want)
						}
						for j, v := range out {
							if v != idx[j] {
								t.Errorf("thread %d: out[%d] = %d, want %d", th.ID, j, v, idx[j])
								return
							}
						}
					})
				})
			}
		}
	}
}

// TestGatherPriceRisesWithK pins the premise of rootsLimit's binary
// search: the price of a gather never falls as it grows. Under RDMA a
// message of RDMAThresholdBytes or more pays the smaller RDMA overhead,
// so pricing the remote words as one aggregate message, less a zero-byte
// one, made the price fall where the aggregate crossed the threshold —
// a message the engine, which sends one per peer segment, never sends.
func TestGatherPriceRisesWithK(t *testing.T) {
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode, cfg.RDMA = 16, 8, true
	m := sim.NewModel(cfg)
	for name, opts := range map[string]*Options{"base": Base(), "optimized": Optimized(2)} {
		prev := 0.0
		for k := int64(1); k <= 5000; k++ {
			price := gatherPrice(m, k, 1<<16, 128, 8, opts)
			if price < prev {
				t.Errorf("%s: the price falls from %.0f ns at k = %d to %.0f ns at k = %d", name, prev, k-1, price, k)
				break
			}
			prev = price
		}
	}
}

// TestRootsPathIsItsPrice holds the roots side of rootsLimit's price
// (rootsPrice) to what a roots gather charges, as
// TestGatherPriceIsTheCharge does the gather in it. At 1 × 1 and 1 × 8
// every thread lists k pairs over k distinct roots, k/s at each owner and
// none that another thread lists, so each owner serves k first touches;
// its next gather is forced to the roots. The clock's advance over the
// gather, waiting aside, must be rootsPrice(2k, k) plus the GetD's
// per-call terms. The cache holds the relabel's k-word table in one column
// and not in the other. In the one-root rows every root answers 0: the
// list ends empty, and the advance is the price less the warm relabel it
// skipped, priced here from the model directly.
func TestRootsPathIsItsPrice(t *testing.T) {
	const k, nb = 2048, 4096
	cols := []struct {
		name string
		opts func() *Options
	}{
		{"base", Base},
		{"optimized", func() *Options { return Optimized(2) }},
		{"quicksort", func() *Options { o := Base(); o.Sort = QuickSort; return o }},
	}
	for _, tpn := range []int{1, 8} {
		for _, cache := range []int64{1 << 20, 8 << 10} {
			for _, col := range cols {
				for _, oneRoot := range []bool{false, true} {
					t.Run(fmt.Sprintf("1x%d/cache=%d/%s/oneroot=%v", tpn, cache, col.name, oneRoot), func(t *testing.T) {
						cfg := machine.PaperCluster()
						cfg.Nodes, cfg.ThreadsPerNode, cfg.CacheBytes = 1, tpn, cache
						rt, err := pgas.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						m, s, opts := rt.Model(), rt.NumThreads(), col.opts()
						perCall := 2*m.Barrier(s) + float64(s)*m.Ops(2) + float64(2*s)*cfg.MemLatency
						if opts.Sort == CountSort {
							perCall += m.Ops(int64(s))
						}
						// The warm relabel: a stream over the 2k labels and
						// 2k lookups into the k answers, no compulsory miss.
						lookups, _ := m.IrregularAccessDistinct(2*k, 0, k)
						relabel := m.SeqScan(2*k) + lookups
						per := int64(k / s)
						root := func(th, j int64) int64 { return j%int64(s)*nb + 1 + th*per + j/int64(s) }
						eu, ev := make([]int32, int64(s)*k), make([]int32, int64(s)*k)
						for e := range eu {
							th, j := int64(e)/k, int64(e)%k
							eu[e], ev[e] = int32(root(th, j)), int32(root(th, (j+1)%k))
						}
						d := rt.NewSharedArray("D", int64(s)*nb)
						d.FillIdentity()
						live := NewComm(rt).NewLiveEdges(true, false, d, nil)
						els := make([]*EdgeList, s)
						rt.Run(func(th *pgas.Thread) {
							els[th.ID] = live.List(th, eu, ev, false)
							els[th.ID].Gather(th, d, opts, false)
						})
						if oneRoot {
							for i := 1; i < s*nb; i++ {
								d.StoreRaw(int64(i), 0)
							}
						}
						rt.Run(func(th *pgas.Thread) {
							el := els[th.ID]
							want := el.rootsPrice(m, 2*k, k, s, tpn) + perCall
							if oneRoot {
								want -= relabel
							}
							if !el.ForcePath(true, slices.Clone(el.Labels)) {
								t.Errorf("thread %d: %d roots do not fit the hook buffers", th.ID, k)
								return
							}
							th.Barrier()
							before := th.Clock
							el.Gather(th, d, opts, false)
							waited := th.Clock.ByCategory[sim.CatWait] - before.ByCategory[sim.CatWait]
							if got := th.Clock.NS - before.NS - waited; math.Abs(got-want) > 1e-9*want {
								t.Errorf("thread %d: roots gather charged %.6f ns; price plus per-call terms %.6f", th.ID, got, want)
							}
							if oneRoot && len(el.Ends)+len(el.Labels) != 0 {
								t.Errorf("thread %d: every root answers 0, yet %d pairs stay listed", th.ID, len(el.Ends)/2)
							}
							for j, e := range el.Ends {
								if el.Labels[j] != d.LoadRaw(int64(e)) {
									t.Errorf("thread %d: Labels[%d] = %d, D[%d] = %d", th.ID, j, el.Labels[j], e, d.LoadRaw(int64(e)))
									return
								}
							}
						})
					})
				}
			}
		}
	}
}
