package wiretransport

import (
	"errors"
	"math"
	"slices"

	"pgasgraph/internal/pgas"
)

// rdvKey names one rendezvous generation within one membership epoch.
// Keying by epoch keeps a fast survivor's first post-eviction barrier frame
// (which can arrive before this node commits the epoch) from aliasing a
// pre-eviction generation number.
type rdvKey struct {
	epoch, gen uint64
}

// rdvState accumulates one rendezvous generation: how many peers have
// arrived and the running maximum of their clock values. A generation that
// cannot complete because a participant died is closed with err set.
type rdvState struct {
	got    int
	max    float64
	err    error
	closed bool
	done   chan struct{}
}

// seat liveness classes (guarded by rdvMu, indexed by original seat).
const (
	seatAlive   uint8 = iota
	seatLeaving       // named dead by an EVICT proposal; still serving reads
	seatCrashed       // connection died without GOODBYE
)

// evState accumulates one membership epoch's agreement: the union of
// proposed dead seats and which live peers have proposed. agreed is filled
// (in original seat numbering) when the epoch commits.
type evState struct {
	epoch   uint64
	union   []bool // by original seat
	arrived []bool // by original seat
	self    bool   // local proposal contributed
	closed  bool
	agreed  []int // original seats, set at commit
	done    chan struct{}
}

// viewState is the live membership: surviving original seats in ascending
// order and this node's index among them (its virtual node id).
type viewState struct {
	seats []int
	vnode int
}

// SelfEvicted reports whether this node was evicted from the cluster
// (its own seat was in a committed dead set, or Fail was called).
func (t *Transport) SelfEvicted() bool {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.selfEvicted
}

// evictErrLocked builds the EvictionError for dead seats under the current
// virtual numbering: only original seat `only` when only >= 0, else every
// non-alive seat still in the view. Caller holds rdvMu.
func (t *Transport) evictErrLocked(only int) error {
	vs := t.liveView.Load()
	var ths []int
	for v, s := range vs.seats {
		if s == only || only < 0 && t.gone[s] != seatAlive {
			for k := 0; k < t.tpn; k++ {
				ths = append(ths, v*t.tpn+k)
			}
		}
	}
	return &pgas.EvictionError{Threads: ths}
}

// leftViewLocked is the EvictionError naming every seat of the view that
// is no longer alive, or nil when none has left. Caller holds rdvMu.
func (t *Transport) leftViewLocked() error {
	for _, s := range t.liveView.Load().seats {
		if t.gone[s] != seatAlive {
			return t.evictErrLocked(-1)
		}
	}
	return nil
}

// crashedFast resolves an operation against a crashed seat without waiting
// out a deadline. Leaving seats (named in a proposal but still draining)
// keep serving, so they do not fail fast.
func (t *Transport) crashedFast(seat int) error {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if t.gone[seat] == seatCrashed {
		return t.evictErrLocked(seat)
	}
	return nil
}

// broadcast sends h with words, flushed, to every seat of targets but this
// one. A failed send follows sendFailed's rule: a deadline or a departed
// peer ends it with the abort, a crash only marks the seat for the round.
func (t *Transport) broadcast(targets []int, h header, words []int64) error {
	for _, s := range targets {
		if s == t.cfg.Node {
			continue
		}
		if err := t.send(s, h, words, true); err != nil {
			if err := t.sendFailed(s, err); !errors.Is(err, pgas.ErrEvicted) {
				return err
			}
		}
	}
	return nil
}

// rdvGetLocked returns generation k's accumulator, creating it on first
// touch from either side (a fast peer's arrival may precede the local
// call). Caller holds rdvMu.
func (t *Transport) rdvGetLocked(k rdvKey) *rdvState {
	st, ok := t.rdv[k]
	if !ok {
		st = &rdvState{max: math.Inf(-1), done: make(chan struct{})}
		t.rdv[k] = st
	}
	return st
}

// rdvCheckLocked completes a generation once every live peer of its epoch
// has arrived. Future-epoch accumulations wait for the epoch to commit
// (the commit sweeps them). Caller holds rdvMu.
func (t *Transport) rdvCheckLocked(k rdvKey, st *rdvState) {
	if st.closed || k.epoch != t.epoch {
		return
	}
	if st.got >= len(t.liveView.Load().seats)-1 {
		st.closed = true
		close(st.done)
	}
}

// failRdvLocked closes every open generation of the current epoch with the
// eviction error naming the currently-dead seats: a generation cannot
// complete once a participant is gone. Caller holds rdvMu.
func (t *Transport) failRdvLocked() {
	var err error
	for k, st := range t.rdv {
		if k.epoch != t.epoch || st.closed {
			continue
		}
		if err == nil {
			err = t.evictErrLocked(-1)
		}
		st.err = err
		st.closed = true
		close(st.done)
	}
}

// Rendezvous is the cross-process barrier leg: broadcast the local clock
// maximum under the next generation number (every process calls Rendezvous
// in the same SPMD sequence, so generations align without negotiation),
// wait for all live peers, and fold the global maximum. When a participant
// is dead — crashed, or named in an eviction proposal — the rendezvous
// fails promptly with *pgas.EvictionError instead of waiting out the
// deadline, and the transport stays usable for the membership agreement.
func (t *Transport) Rendezvous(localMax float64) (float64, error) {
	const op = "wire Rendezvous"
	if t.aborted() {
		return 0, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	if err := t.leftViewLocked(); err != nil {
		t.rdvMu.Unlock()
		return 0, err
	}
	vs := t.liveView.Load()
	t.rdvGen++
	k := rdvKey{epoch: t.epoch, gen: t.rdvGen}
	st := t.rdvGetLocked(k)
	t.rdvCheckLocked(k, st)
	t.rdvMu.Unlock()

	bar := header{typ: frBarrier, w: pgas.Win{ID: uint32(k.epoch)}, off: int64(k.gen), reqID: math.Float64bits(localMax)}
	if err := t.broadcast(vs.seats, bar, nil); err != nil {
		return 0, err
	}
	if _, err := await(t, nil, op, st.done, stall{seat: -1, round: k.gen, view: true}); err != nil {
		return 0, err
	}
	t.rdvMu.Lock()
	ferr, g := st.err, st.max
	delete(t.rdv, k)
	t.rdvMu.Unlock()
	if ferr != nil {
		return 0, ferr
	}
	return max(g, localMax), nil
}

// evGetLocked returns epoch's agreement accumulator, creating it on first
// touch from either side. Caller holds rdvMu.
func (t *Transport) evGetLocked(epoch uint64) *evState {
	st, ok := t.evs[epoch]
	if !ok {
		st = &evState{
			epoch:   epoch,
			union:   make([]bool, t.cfg.Nodes),
			arrived: make([]bool, t.cfg.Nodes),
			done:    make(chan struct{}),
		}
		t.evs[epoch] = st
	}
	return st
}

// markLeavingLocked marks every union-named live seat as leaving and fails
// the current epoch's open rendezvous generations, so local waiters unwind
// with EvictionError at their next barrier instead of a deadline. Caller
// holds rdvMu.
func (t *Transport) markLeavingLocked(st *evState) {
	marked := false
	for _, s := range t.liveView.Load().seats {
		if s != t.cfg.Node && st.union[s] && t.gone[s] == seatAlive {
			t.gone[s] = seatLeaving
			marked = true
		}
	}
	if marked {
		t.failRdvLocked()
	}
}

// evCheckLocked commits the next membership epoch once this node has
// proposed and every live seat has either proposed, been proposed dead, or
// crashed. The agreed set is the union of proposals plus crash-detected
// seats; the view shrinks, rendezvous generations restart, and pre-arrived
// new-epoch barrier frames are re-checked for completion. Caller holds
// rdvMu.
func (t *Transport) evCheckLocked() {
	st := t.evs[t.epoch+1]
	if st == nil || st.closed || !st.self {
		return
	}
	vs := t.liveView.Load()
	me := t.cfg.Node
	for _, s := range vs.seats {
		if s != me && !st.arrived[s] && !st.union[s] && t.gone[s] != seatCrashed {
			return // a live seat has yet to propose
		}
	}
	var agreed, newSeats []int
	for _, s := range vs.seats {
		if st.union[s] || t.gone[s] == seatCrashed {
			agreed = append(agreed, s)
		} else {
			newSeats = append(newSeats, s)
		}
	}
	st.agreed = agreed
	t.epoch = st.epoch
	t.rdvGen = 0
	for k := range t.rdv {
		if k.epoch < t.epoch {
			delete(t.rdv, k)
		}
	}
	if slices.Contains(agreed, me) {
		t.selfEvicted = true
	} else {
		t.liveView.Store(&viewState{seats: newSeats, vnode: slices.Index(newSeats, me)})
	}
	st.closed = true
	close(st.done)
	delete(t.evs, st.epoch)
	// A fast survivor's first new-epoch barrier frames may already have
	// accumulated; complete them against the shrunk view.
	for k, rst := range t.rdv {
		if k.epoch == t.epoch {
			t.rdvCheckLocked(k, rst)
		}
	}
}

// EvictNodes proposes the given virtual node ids (under the current view)
// as dead and blocks until the cluster commits the next membership epoch.
// It returns the agreed dead set in the same pre-agreement virtual
// numbering — possibly a superset of the proposal, when other survivors or
// crash detection contributed more seats. A node evicting itself proposes
// its own seat, keeps serving reads until the commit so survivors drain
// deterministically, and must call Fail afterwards.
func (t *Transport) EvictNodes(dead []int) ([]int, error) {
	const op = "wire EvictNodes"
	if t.aborted() {
		return nil, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	epoch := t.epoch + 1
	st := t.evGetLocked(epoch)
	for _, v := range dead {
		if v < 0 || v >= len(vs.seats) {
			t.rdvMu.Unlock()
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, op,
				"node %d out of range [0,%d)", v, len(vs.seats))
		}
		st.union[vs.seats[v]] = true
	}
	// Fold in every seat this node independently knows is gone, so the
	// agreement converges even when survivors detected different deaths;
	// every seat still connected hears the proposal.
	var targets []int
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatAlive {
			st.union[s] = true
		}
		if t.gone[s] != seatCrashed {
			targets = append(targets, s)
		}
	}
	st.self = true
	t.markLeavingLocked(st)
	words := make([]int64, t.evictWords())
	for s, dead := range st.union {
		if dead {
			words[s/64] |= 1 << (s % 64)
		}
	}
	t.evCheckLocked()
	t.rdvMu.Unlock()

	if err := t.broadcast(targets, header{typ: frEvict, off: int64(epoch), count: int64(len(words))}, words); err != nil {
		return nil, err
	}
	// A crash is the agreement's input, not its failure: no departure
	// explains a missed deadline here.
	if _, err := await(t, nil, op, st.done, stall{seat: -1, round: epoch}); err != nil {
		return nil, err
	}
	t.rdvMu.Lock()
	agreed := st.agreed
	t.rdvMu.Unlock()
	out := make([]int, len(agreed))
	for i, s := range agreed {
		out[i] = slices.Index(vs.seats, s)
	}
	return out, nil
}

// applyEvict folds a peer's membership proposal for the given epoch.
func (t *Transport) applyEvict(nd int, epoch uint64, words []int64) {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if epoch <= t.epoch {
		return // stale duplicate of an already-committed epoch
	}
	st := t.evGetLocked(epoch)
	for s := 0; s < t.cfg.Nodes; s++ {
		if s/64 < len(words) && words[s/64]&(1<<(s%64)) != 0 {
			st.union[s] = true
		}
	}
	st.arrived[nd] = true
	t.markLeavingLocked(st)
	t.evCheckLocked()
}

// applyBarrier counts a peer's arrival at a rendezvous generation.
func (t *Transport) applyBarrier(epoch, gen uint64, v float64) {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if epoch < t.epoch {
		return // straggler from a committed epoch, already failed and cleaned up
	}
	k := rdvKey{epoch: epoch, gen: gen}
	st := t.rdvGetLocked(k)
	st.max = max(st.max, v)
	st.got++
	t.rdvCheckLocked(k, st)
}

// peerCrashed classifies a dead connection: mark the seat crashed, fail the
// open rendezvous generations and every pending request to that seat with
// EvictionError, and re-check a waiting membership agreement (a crash
// during the agreement counts as that seat's accounting).
func (t *Transport) peerCrashed(seat int, cause error) {
	t.rdvMu.Lock()
	if !slices.Contains(t.liveView.Load().seats, seat) || t.gone[seat] == seatCrashed || t.selfEvicted {
		t.rdvMu.Unlock()
		return
	}
	t.gone[seat] = seatCrashed
	t.failRdvLocked()
	evErr := t.evictErrLocked(seat)
	t.evCheckLocked()
	t.rdvMu.Unlock()

	t.pendMu.Lock()
	for id, pr := range t.pend {
		if pr.seat == seat {
			delete(t.pend, id)
			pr.ch <- wireResp{err: evErr}
		}
	}
	t.pendMu.Unlock()
}

// evictWords is the length of an EVICT frame's dead-seat bitmap.
func (t *Transport) evictWords() int { return (t.cfg.Nodes + 63) / 64 }
