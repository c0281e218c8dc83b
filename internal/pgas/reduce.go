package pgas

import (
	"fmt"

	"pgasgraph/internal/sim"
)

// Reducer is the runtime's global reduction over all threads: each thread
// publishes one word, everyone meets at a barrier, and all threads read the
// whole vector back and fold it. Or is the "did any thread graft?"
// convergence test the paper's kernels run each iteration, Sum tracks a
// global size, and Min agrees on the next non-empty bucket. All threads
// must call a reducer's methods in the same order (each contains a
// barrier).
//
// Vectors are double-buffered by round parity so one barrier per reduction
// suffices: a thread racing ahead into round r+1 writes the other buffer,
// never the one its peers are still scanning.
//
// On a wire transport each process holds a replica of both vectors: a
// thread publishes its slot locally and pushes the single word to every
// peer process before arriving at the barrier, whose rendezvous orders the
// deliveries before any reader's scan. The pushes are the physical
// realization of the reduction the cost model already charges as a scan
// plus the enclosing barrier, so they charge nothing extra.
type Reducer struct {
	vals  [2][]int64
	round []int64 // per-thread round counter (each slot written by one thread)
	wins  [2]Win  // transport windows; zero on a shared fabric
}

// NewReducer returns a reducer for rt's thread count.
func NewReducer(rt *Runtime) *Reducer {
	s := rt.NumThreads()
	r := &Reducer{vals: [2][]int64{make([]int64, s), make([]int64, s)}, round: make([]int64, s)}
	if !rt.tr.Shared() {
		id := rt.NewWinID()
		for b := range r.vals {
			r.wins[b] = Win{Kind: WinReduce, ID: id, Sub: int32(b)}
			rt.tr.Expose(r.wins[b], r.vals[b])
		}
	}
	return r
}

// exchange publishes v as th's word of this round and returns every
// thread's. All threads must call it the same number of times (it contains
// a barrier); the caller's fold over the vector is charged here as local
// work.
func (r *Reducer) exchange(th *Thread, v int64) []int64 {
	parity := r.round[th.ID] & 1
	buf := r.vals[parity]
	r.round[th.ID]++
	// Disjoint plain writes; the barrier's lock provides the
	// happens-before edge to the readers.
	buf[th.ID] = v
	if tr := th.rt.tr; !tr.Shared() {
		src := [1]int64{v}
		for nd := 0; nd < tr.Nodes(); nd++ {
			if nd == tr.Node() {
				continue
			}
			if err := tr.Put(th, nd, r.wins[parity], int64(th.ID), src[:]); err != nil {
				panic(err)
			}
		}
	}
	th.Barrier()
	th.ChargeOps(sim.CatWork, int64(len(buf)))
	return buf
}

// Or publishes local and returns the OR over all threads.
func (r *Reducer) Or(th *Thread, local bool) bool {
	v := int64(0)
	if local {
		v = 1
	}
	for _, f := range r.exchange(th, v) {
		if f != 0 {
			return true
		}
	}
	return false
}

// Loop is the superstep loop of every kernel that repeats until no thread
// changed anything: it runs round(0), round(1), … on th, OR-reduces each
// round's local progress through Or, and returns after the first round
// in which no thread made progress. The rounds it ran add to the region's
// Result.Rounds, so every process of a wire cluster reports the same count.
// A kernel still making progress after max rounds has a bug: Loop panics
// naming it. All threads must call Loop together.
func (r *Reducer) Loop(th *Thread, kernel string, max int, round func(i int) bool) {
	for i := 0; i < max; i++ {
		if !r.Or(th, round(i)) {
			th.rounds += i + 1
			return
		}
	}
	panic(fmt.Sprintf("%s exceeded %d rounds", kernel, max))
}

// Sum publishes local and returns the sum over all threads.
func (r *Reducer) Sum(th *Thread, local int64) int64 {
	var sum int64
	for _, v := range r.exchange(th, local) {
		sum += v
	}
	return sum
}

// Min publishes local and returns the minimum over all threads.
func (r *Reducer) Min(th *Thread, local int64) int64 {
	buf := r.exchange(th, local)
	lo := buf[0]
	for _, v := range buf[1:] {
		lo = min(lo, v)
	}
	return lo
}
