package collective

import "sync"

// parGrain is the smallest per-worker chunk (in elements) worth handing to
// a helper goroutine: below it, spawn/synchronization overhead exceeds the
// memory-bandwidth win of a second stream.
const parGrain = 4096

// defaultParallelism sizes the serve/permute worker count for a runtime of
// s simulated threads on a host exposing procs schedulable CPUs: the
// leftover host parallelism after dedicating one goroutine per runtime
// thread, capped at 8 (the data movement is bandwidth-bound; more streams
// stop helping well before that).
func defaultParallelism(procs, s int) int {
	if s <= 0 {
		return 1
	}
	w := procs / s
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return w
}

// chunksFor returns how many worker chunks an n-element loop should split
// into: 1 (run inline) unless extra workers are configured and the loop is
// long enough to amortize goroutine spawns.
func (c *Comm) chunksFor(n int) int {
	w := c.par
	if m := n / parGrain; w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// moveKind names one of the engine's element-wise data movements.
type moveKind uint8

const (
	// movePermute writes out[pos[p]] = a[p]: the permute-back of
	// Algorithm 2 step 6. pos is a permutation, so chunks write disjoint
	// out slots.
	movePermute moveKind = iota
	// movePermute2 is movePermute over two aligned value/output pairs at
	// once (GetDPair's fused permute-back).
	movePermute2
	// moveAlign writes out[p] = a[pos[p]]: the value-alignment pass of the
	// grouping sort (Set* collectives). Chunks write disjoint out ranges.
	moveAlign
	// moveTranslate writes out[j] = a[j] - base: the serve phase's
	// global-to-block-local index translation of one peer segment.
	moveTranslate
)

// move is one data movement and its operands. With via set, movePermute
// and moveAlign go through it — out[via[pos[p]]], a[via[pos[p]]] — for a
// filtered plan, where pos indexes the filtered request list and via maps
// filtered positions to original ones; via∘pos is still injective.
//
// It is a plain value handed to a named function, not a closure handed to
// a spawning helper: a closure would escape to the heap at every call
// site, even when the serial path runs, and the point of this file is a
// zero-allocation steady state.
type move struct {
	kind     moveKind
	pos, via []int32
	a, out   []int64
	a2, out2 []int64
	base     int64
}

// run performs elements [lo, hi) of m.
func (m move) run(lo, hi int) {
	via := m.via
	switch m.kind {
	case movePermute:
		pos, a, out := m.pos[lo:hi], m.a[lo:hi], m.out
		if via != nil {
			for p, j := range pos {
				out[via[j]] = a[p]
			}
			return
		}
		for p, j := range pos {
			out[j] = a[p]
		}
	case movePermute2:
		pos, a, out, a2, out2 := m.pos[lo:hi], m.a[lo:hi], m.out, m.a2[lo:hi], m.out2
		for p, j := range pos {
			out[j] = a[p]
			out2[j] = a2[p]
		}
	case moveAlign:
		pos, a, out := m.pos[lo:hi], m.a, m.out[lo:hi]
		if via != nil {
			for p, j := range pos {
				out[p] = a[via[j]]
			}
			return
		}
		for p, j := range pos {
			out[p] = a[j]
		}
	case moveTranslate:
		a, out, base := m.a[lo:hi], m.out[lo:hi], m.base
		for j, gix := range a {
			out[j] = gix - base
		}
	}
}

// moveAll performs all n elements of m, split across this thread's host
// workers when the loop is long enough. Results and simulated-time charges
// are identical at any worker count; only wall-clock time changes.
func (c *Comm) moveAll(m move, n int) {
	w := c.chunksFor(n)
	if w <= 1 {
		m.run(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go moveChunk(&wg, m, lo, min(lo+chunk, n))
	}
	m.run(0, chunk)
	wg.Wait()
}

func moveChunk(wg *sync.WaitGroup, m move, lo, hi int) {
	defer wg.Done()
	m.run(lo, hi)
}
