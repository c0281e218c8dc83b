package seq

import (
	"container/heap"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/unionfind"
)

// The independent oracles below cross-check the production ones (CC's
// union-find, Kruskal) in this package's tests; no program calls them.

// CCBFS returns canonical component labels via breadth-first search over a
// CSR view — an independent implementation used to cross-check CC.
func CCBFS(g *graph.Graph) []int64 {
	csr := graph.BuildCSR(g)
	labels := make([]int64, g.N)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, 1024)
	for s := int64(0); s < g.N; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = s
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range csr.Neighbors(int64(v)) {
				if labels[w] == -1 {
					labels[w] = s
					queue = append(queue, w)
				}
			}
		}
	}
	return labels
}

// Prim computes the minimum spanning forest with Prim's algorithm and a
// binary heap, run from every unvisited vertex so disconnected graphs
// yield a forest. Used as an independent cross-check of Kruskal.
func Prim(g *graph.Graph) *MSF {
	if !g.Weighted() {
		panic("seq: Prim requires a weighted graph")
	}
	csr := graph.BuildCSR(g)
	visited := make([]bool, g.N)
	msf := &MSF{}
	pq := &edgeHeap{}
	for s := int64(0); s < g.N; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		pq.items = pq.items[:0]
		pushNeighbors(csr, s, pq)
		for pq.Len() > 0 {
			it := heap.Pop(pq).(heapItem)
			if visited[it.to] {
				continue
			}
			visited[it.to] = true
			msf.Edges = append(msf.Edges, it.edge)
			msf.Weight += uint64(it.w)
			pushNeighbors(csr, int64(it.to), pq)
		}
	}
	return msf
}

func pushNeighbors(csr *graph.CSR, v int64, pq *edgeHeap) {
	lo, hi := csr.Offs[v], csr.Offs[v+1]
	for p := lo; p < hi; p++ {
		heap.Push(pq, heapItem{w: csr.WAdj[p], to: csr.Adj[p], edge: csr.EdgeID[p]})
	}
}

type heapItem struct {
	w    uint32
	to   int32
	edge int64
}

type edgeHeap struct{ items []heapItem }

func (h *edgeHeap) Len() int { return len(h.items) }
func (h *edgeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.w != b.w {
		return a.w < b.w
	}
	return a.edge < b.edge
}
func (h *edgeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *edgeHeap) Push(x interface{}) { h.items = append(h.items, x.(heapItem)) }
func (h *edgeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Boruvka computes the minimum spanning forest with the classic sequential
// Borůvka algorithm (the parallel MST kernel is its PRAM variant), used as
// a third independent verifier.
func Boruvka(g *graph.Graph) *MSF {
	if !g.Weighted() {
		panic("seq: Boruvka requires a weighted graph")
	}
	ds := unionfind.New(g.N)
	msf := &MSF{}
	const none = int64(-1)
	for {
		best := make(map[int32]int64) // component root -> best edge id
		for e := int64(0); e < g.M(); e++ {
			ru, rv := ds.Find(g.U[e]), ds.Find(g.V[e])
			if ru == rv {
				continue
			}
			for _, r := range [2]int32{ru, rv} {
				cur, ok := best[r]
				if !ok || less(g, e, cur) {
					best[r] = e
				}
			}
		}
		if len(best) == 0 {
			break
		}
		merged := false
		for _, e := range best {
			if e == none {
				continue
			}
			if ds.Union(g.U[e], g.V[e]) {
				msf.Edges = append(msf.Edges, e)
				msf.Weight += uint64(g.W[e])
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	return msf
}

// less orders edges by (weight, id) — the deterministic tie-break every
// MST kernel in this repository uses.
func less(g *graph.Graph, a, b int64) bool {
	if g.W[a] != g.W[b] {
		return g.W[a] < g.W[b]
	}
	return a < b
}
