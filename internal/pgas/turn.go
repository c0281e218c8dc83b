package pgas

import (
	"math"
	"sync"
)

// turnQuantum is how far, in simulated ns, a turn's holder may run ahead of
// the earliest parked thread. Host cost sets it: a hand-off wakes a
// goroutine (about 1.5 us), an access costs the host about 15 ns
// (docs/MODEL.md, "One-sided regions", has the hand-offs per run).
const turnQuantum = 50e6

// turn orders the threads this process drives through a one-sided region
// (RunOneSided). A thread passes a turn point (a single-word access, a
// barrier arrival, the region's exit) only while it holds the turn. Once
// every thread of the superstep has parked, the turn goes to the smallest
// (clock, id), which keeps it while within turnQuantum of the smallest
// parked clock. Only the holder runs between turn points, so every
// simulated number is a function of the region's input.
type turn struct {
	mu          sync.Mutex
	wake        []chan struct{} // per local thread (id mod their count): the turn is yours
	clock       []float64       // a parked thread's clock
	state       []uint8         // running, parked or out (at a barrier, exited or unwound)
	parked, out int
	holder      int        // local index, -1 between holders
	limit       float64    // the clock up to which the last grant holds
	smallOp     [3]float64 // a remote word's charge per message, by wire legs
	arrays      []*wordArray
}

const (
	running uint8 = iota
	parked
	out
)

// wordArray is what single-word accesses to one array charge in a region:
// a local access, and AtomicMin's modelled lock per word.
type wordArray struct {
	a                    *SharedArray
	localNS, localMisses float64
	holds                []lockHold
}

// lockHold is the last AtomicMin's simulated hold of a word's lock.
type lockHold struct {
	start, end float64
	by         int // thread id + 1; 0 = never held
}

func newTurn(rt *Runtime) *turn {
	n := len(rt.locals)
	t := &turn{wake: make([]chan struct{}, n), clock: make([]float64, n), state: make([]uint8, n), holder: -1}
	for k := range t.wake {
		t.wake[k] = make(chan struct{}, 1)
	}
	for legs := 1; legs < len(t.smallOp); legs++ {
		t.smallOp[legs] = rt.model.SmallOp(rt.cfg.ThreadsPerNode, rt.s, legs)
	}
	return t
}

// point returns once th holds the turn, with th.limit the clock up to which
// it keeps it; callers skip it while th's clock is within that limit. Outside
// a one-sided region (t nil) a single-word access is a classified misuse.
func (t *turn) point(th *Thread) {
	if t == nil {
		panic(Errorf(ErrMisuse, th.ID, "word", "single-word access outside a one-sided region (RunOneSided)"))
	}
	k := th.ID % len(t.state)
	t.mu.Lock()
	if t.holder == k {
		t.holder = -1
	}
	t.clock[k], t.state[k] = th.Clock.NS, parked
	t.parked++
	t.grant()
	t.mu.Unlock()
	<-t.wake[k]
	th.limit = t.limit
}

// grant hands a free turn to the smallest parked (clock, id) once every
// thread in the superstep has parked; the next smallest sets its limit.
func (t *turn) grant() {
	if t.holder >= 0 || t.parked == 0 || t.parked+t.out < len(t.state) {
		return
	}
	next := math.Inf(1)
	for j, s := range t.state {
		switch {
		case s != parked:
		case t.holder < 0 || t.clock[j] < t.clock[t.holder]:
			if t.holder >= 0 {
				next = t.clock[t.holder]
			}
			t.holder = j
		case t.clock[j] < next:
			next = t.clock[j]
		}
	}
	t.limit = next + turnQuantum
	t.state[t.holder] = running
	t.parked--
	t.wake[t.holder] <- struct{}{}
}

// leave takes th out of the superstep: at a barrier arrival or the
// region's exit (wait) once it holds the turn, and wherever it is when it
// panics or is killed, after which its peers run on to the broken barrier.
func (t *turn) leave(th *Thread, wait bool) {
	if wait && th.Clock.NS > th.limit {
		t.point(th)
	}
	k := th.ID % len(t.state)
	t.mu.Lock()
	defer t.mu.Unlock()
	th.limit = math.Inf(-1)
	if t.state[k] != out {
		t.state[k] = out
		t.out++
		if t.holder == k {
			t.holder = -1
		}
		t.grant()
	}
}

// rejoin puts every thread back in the superstep: a barrier's completing
// arriver calls it before any waiter is released.
func (t *turn) rejoin() {
	t.mu.Lock()
	clear(t.state)
	t.parked, t.out, t.holder = 0, 0, -1
	t.mu.Unlock()
}

// array is a's charges in this region.
func (t *turn) array(a *SharedArray) *wordArray {
	for _, w := range t.arrays {
		if w.a == a {
			return w
		}
	}
	w := &wordArray{a: a}
	w.localNS, w.localMisses = a.rt.model.IrregularAccess(1, a.NodeSpan())
	t.arrays = append(t.arrays, w)
	return w
}
