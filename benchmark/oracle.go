package main

// Oracles the benchmark owns: sequential union-find (batch and
// incremental), BFS and Dijkstra over its own CSR. Every answer the
// program gives is compared with these; they import nothing from the
// program, so a program bug cannot hide in a shared helper.

import (
	"container/heap"
	"sort"
)

// oracleUnreached is the oracles' "no path" distance; workloads map it to
// the program's sentinel when they compare.
const oracleUnreached = int64(-1)

// unionFind keeps components under edge insertions with the smallest
// vertex id of each component as its root, so label(x) is the canonical
// component-minimum label the program's CC kernels report.
type unionFind struct {
	parent []int32
	size   []int32
	comps  int64
}

func newUnionFind(n int64) *unionFind {
	f := &unionFind{parent: make([]int32, n), size: make([]int32, n), comps: n}
	for i := range f.parent {
		f.parent[i] = int32(i)
		f.size[i] = 1
	}
	return f
}

func (f *unionFind) find(x int32) int32 {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

// union merges the components of a and b; the smaller root id survives.
func (f *unionFind) union(a, b int32) {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	f.size[ra] += f.size[rb]
	f.comps--
}

func (f *unionFind) label(x int64) int64    { return int64(f.find(int32(x))) }
func (f *unionFind) compSize(x int64) int64 { return int64(f.size[f.find(int32(x))]) }

// labels returns the full canonical labeling.
func (f *unionFind) labels() []int64 {
	out := make([]int64, len(f.parent))
	for i := range out {
		out[i] = int64(f.find(int32(i)))
	}
	return out
}

// oracleCC labels the graph's components from scratch.
func oracleCC(n int64, u, v []int32) *unionFind {
	f := newUnionFind(n)
	for i := range u {
		f.union(u[i], v[i])
	}
	return f
}

// adjacency is a CSR over both directions of every edge.
type adjacency struct {
	off []int64
	nbr []int32
	wt  []uint32 // nil when unweighted
}

func buildAdjacency(n int64, u, v []int32, w []uint32) *adjacency {
	a := &adjacency{off: make([]int64, n+1), nbr: make([]int32, 2*len(u))}
	if w != nil {
		a.wt = make([]uint32, 2*len(u))
	}
	for i := range u {
		a.off[u[i]+1]++
		a.off[v[i]+1]++
	}
	for i := int64(0); i < n; i++ {
		a.off[i+1] += a.off[i]
	}
	cur := append([]int64(nil), a.off[:n]...)
	put := func(from, to int32, i int) {
		p := cur[from]
		cur[from]++
		a.nbr[p] = to
		if w != nil {
			a.wt[p] = w[i]
		}
	}
	for i := range u {
		put(u[i], v[i], i)
		put(v[i], u[i], i)
	}
	return a
}

// hasEdge reports whether {x, y} is an edge, scanning x's row: callers
// pass the endpoint expected to have the shorter row first.
func (a *adjacency) hasEdge(x, y int64) bool {
	if x < 0 || y < 0 || x >= int64(len(a.off)-1) || y >= int64(len(a.off)-1) {
		return false
	}
	for _, z := range a.nbr[a.off[x]:a.off[x+1]] {
		if int64(z) == y {
			return true
		}
	}
	return false
}

// oracleBFS returns hop distances from src (oracleUnreached where none).
func oracleBFS(a *adjacency, src int64) []int64 {
	n := len(a.off) - 1
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = oracleUnreached
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, y := range a.nbr[a.off[x]:a.off[x+1]] {
			if dist[y] == oracleUnreached {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}

type heapItem struct {
	d int64
	v int32
}
type distHeap []heapItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleDijkstra returns weighted distances from src (oracleUnreached
// where none). The adjacency must carry weights.
func oracleDijkstra(a *adjacency, src int64) []int64 {
	n := len(a.off) - 1
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = oracleUnreached
	}
	dist[src] = 0
	h := &distHeap{{0, int32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d != dist[it.v] {
			continue
		}
		for p := a.off[it.v]; p < a.off[it.v+1]; p++ {
			y := a.nbr[p]
			nd := it.d + int64(a.wt[p])
			if dist[y] == oracleUnreached || nd < dist[y] {
				dist[y] = nd
				heap.Push(h, heapItem{nd, y})
			}
		}
	}
	return dist
}

// oracleMSTWeight returns the weight of a minimum spanning forest
// (Kruskal). Ties between equal weights do not change the total.
func oracleMSTWeight(n int64, u, v []int32, w []uint32) uint64 {
	order := make([]int32, len(u))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return w[order[a]] < w[order[b]] })
	f := newUnionFind(n)
	var total uint64
	for _, e := range order {
		if f.find(u[e]) != f.find(v[e]) {
			f.union(u[e], v[e])
			total += uint64(w[e])
		}
	}
	return total
}
