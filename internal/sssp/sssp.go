// Package sssp implements distributed single-source shortest paths with
// delta-stepping (Meyer & Sanders) — the weighted generalization of the
// level-synchronous BFS in internal/bfs, and the natural next algorithm a
// user of this library's PGAS surface reaches for. Tentative distances
// travel to their vertex owners through the ExchangePairs collective (one
// coalesced message per thread pair per relaxation round); owners apply
// minima locally and manage the bucket structure for their vertices.
//
// Results are verified against sequential Dijkstra in the tests. Like
// BFS, the relaxation sets differ every round, so the kernel issues
// one-shot collectives rather than reusing a collective.Plan.
package sssp

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Unreached marks vertices with no path from the source.
const Unreached = int64(math.MaxInt64)

// maxPhases bounds bucket phases as a bug backstop.
const maxPhases = 1 << 22

// Result is the outcome of one SSSP run.
type Result struct {
	// Dist[i] is the weighted distance from the source, or Unreached.
	Dist []int64
	// Buckets is the number of bucket phases processed.
	Buckets int
	// Relaxations counts applied (improving) relaxations.
	Relaxations int64
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// seqDijkstra is the sequential baseline: binary-heap Dijkstra.
func seqDijkstra(g *graph.Graph, src int64) []int64 {
	if !g.Weighted() {
		panic("sssp: input graph is unweighted")
	}
	csr := graph.BuildCSR(g)
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Unreached
	}
	if g.N == 0 {
		return dist
	}
	dist[src] = 0
	pq := &distHeap{}
	heap.Push(pq, distItem{v: src, d: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for p := csr.Offs[it.v]; p < csr.Offs[it.v+1]; p++ {
			w := int64(csr.Adj[p])
			nd := it.d + int64(csr.WAdj[p])
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(pq, distItem{v: w, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int64
	d int64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// DefaultDelta returns the classic bucket width heuristic: the maximum
// edge weight divided by the average degree (at least 1).
func DefaultDelta(g *graph.Graph) int64 {
	var maxW uint32
	for _, w := range g.W {
		if w > maxW {
			maxW = w
		}
	}
	if g.M() == 0 || g.N == 0 {
		return 1
	}
	avgDeg := 2 * g.M() / g.N
	if avgDeg < 1 {
		avgDeg = 1
	}
	delta := int64(maxW) / avgDeg
	if delta < 1 {
		delta = 1
	}
	return delta
}

// DeltaStepping runs distributed delta-stepping from src with the given
// bucket width (<= 0 selects DefaultDelta). Each bucket phase repeatedly
// relaxes light edges (w <= delta) of the bucket's vertices until it
// drains, then relaxes heavy edges of everything the phase removed.
//
// Recoverable state (pgas.Register): none. The tentative distances are
// monotone, but the bucket structure is derived state the loop would
// re-enter empty after a restore — the scan finds no bucket to settle and
// terminates with unrelaxed vertices. After an eviction SSSP recovers by
// full deterministic re-execution.
func DeltaStepping(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, src int64, delta int64, colOpts *collective.Options) *Result {
	if !g.Weighted() {
		panic("sssp: input graph is unweighted")
	}
	if delta <= 0 {
		delta = DefaultDelta(g)
	}
	col := collective.Sanitize(colOpts, false) // no offload: distances are all mutable
	csr := graph.BuildCSR(g)
	dist := rt.NewSharedArray("Dist", g.N)
	dist.Fill(Unreached)
	if g.N > 0 {
		dist.StoreRaw(src, 0)
	}
	minRed := pgas.NewReducer(rt)
	orRed := pgas.NewReducer(rt)
	s := rt.NumThreads()
	relaxCounts := make([]int64, s)
	phases := make([]int, s) // every thread agrees; each records its own

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := dist.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, hi-lo)

		// buckets[b] holds owned vertices with tentative distance in
		// [b*delta, (b+1)*delta); entries are lazy (stale ones are
		// filtered on pop against the current distance).
		buckets := map[int64][]int64{}
		push := func(v, d int64) {
			b := d / delta
			buckets[b] = append(buckets[b], v)
		}
		if src >= lo && src < hi && g.N > 0 {
			push(src, 0)
		}
		// removed lists the vertices the phase expanded, expandedAt the
		// distance of each one's last light expansion: a vertex improved
		// twice in one relax sits in its bucket twice, and its second
		// entry would send the same candidates again.
		removed := make([]int64, 0, 1024)
		expandedAt := make(map[int64]int64, 1024)
		var sendIdx, sendVal []int64
		relaxed := int64(0)

		// relax streams candidate (vertex, distance) pairs to owners and
		// applies the improving ones, pushing updated vertices into
		// owner-side buckets.
		relax := func() bool {
			recvV, recvD := comm.ExchangePairs(th, dist, sendIdx, sendVal, col, nil)
			changed := false
			for j, v := range recvV {
				if recvD[j] < dist.LoadRaw(v) {
					dist.StoreRaw(v, recvD[j])
					push(v, recvD[j])
					relaxed++
					changed = true
				}
			}
			th.ChargeIrregular(sim.CatCopy, int64(len(recvV)), hi-lo)
			sendIdx, sendVal = sendIdx[:0], sendVal[:0]
			return changed
		}

		// expand appends the candidates of v's edges of the selected
		// weight class.
		expand := func(v int64, light bool) {
			d := dist.LoadRaw(v)
			for p := csr.Offs[v]; p < csr.Offs[v+1]; p++ {
				w := int64(csr.WAdj[p])
				if (w <= delta) != light {
					continue
				}
				sendIdx = append(sendIdx, int64(csr.Adj[p]))
				sendVal = append(sendVal, d+w)
			}
			th.ChargeSeq(sim.CatWork, csr.Offs[v+1]-csr.Offs[v])
		}

		for phase := 0; ; phase++ {
			if phase >= maxPhases {
				panic(fmt.Sprintf("sssp: exceeded %d phases", maxPhases))
			}
			// Agree on the next non-empty bucket.
			myMin := int64(math.MaxInt64)
			for b := range buckets {
				if b < myMin && len(buckets[b]) > 0 {
					myMin = b
				}
			}
			th.ChargeOps(sim.CatWork, int64(len(buckets)))
			cur := minRed.Min(th, myMin)
			if cur == int64(math.MaxInt64) {
				phases[th.ID] = phase
				relaxCounts[th.ID] = relaxed
				return
			}

			// Light-edge cascade within the bucket.
			removed = removed[:0]
			clear(expandedAt)
			for {
				batch := buckets[cur]
				delete(buckets, cur)
				for _, v := range batch {
					d := dist.LoadRaw(v)
					if d/delta != cur {
						continue // stale entry
					}
					if at, ok := expandedAt[v]; !ok {
						removed = append(removed, v)
					} else if at == d {
						continue // expanded at this distance already
					}
					expandedAt[v] = d
					expand(v, true)
				}
				th.ChargeOps(sim.CatWork, int64(len(batch)))
				if !orRed.Or(th, relaxAny(relax(), len(buckets[cur]) > 0)) {
					break
				}
			}

			// Heavy edges of everything this phase settled, once.
			for _, v := range removed {
				expand(v, false)
			}
			relax()
			th.Barrier()
		}
	})

	res := &Result{
		Dist:    append([]int64(nil), dist.Raw()...),
		Buckets: slices.Max(phases),
		Run:     run,
	}
	for _, c := range relaxCounts {
		res.Relaxations += c
	}
	return res
}

// relaxAny merges the local progress signals of one light round.
func relaxAny(changed, pending bool) bool { return changed || pending }
