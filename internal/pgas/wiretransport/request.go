package wiretransport

import (
	"errors"
	"time"

	"pgasgraph/internal/pgas"
)

// pendReq is one request awaiting its response. The reader decodes a
// verified GETRESP straight into dst, so whoever removes the entry from
// the table owns dst until it has sent on ch.
type pendReq struct {
	ch   chan wireResp
	seat int     // destination original seat, so a crash can resolve it
	dst  []int64 // a GET's destination; nil for PUTMIN
}

type wireResp struct {
	status uint8
	err    error
}

func (t *Transport) register(seat int, dst []int64) (uint64, chan wireResp) {
	ch := make(chan wireResp, 1)
	t.pendMu.Lock()
	t.reqSeq++
	id := t.reqSeq
	t.pend[id] = pendReq{ch: ch, seat: seat, dst: dst}
	t.pendMu.Unlock()
	return id, ch
}

// claim removes request id from the table. Whoever claims an entry sends
// exactly one wireResp on its channel.
func (t *Transport) claim(id uint64) (pendReq, bool) {
	t.pendMu.Lock()
	pr, ok := t.pend[id]
	if ok {
		delete(t.pend, id)
	}
	t.pendMu.Unlock()
	return pr, ok
}

func (t *Transport) resolve(id uint64, r wireResp) {
	if pr, ok := t.claim(id); ok {
		pr.ch <- r
	}
}

// abandon withdraws a request its waiter has given up on. When the entry
// is already claimed — the reader is decoding the response into dst, or a
// crash is resolving it — abandon waits for the claimant's send, so dst is
// never written after the waiter returns. The wait is bounded: claimants
// only touch memory between claiming and sending.
func (t *Transport) abandon(id uint64, ch chan wireResp) {
	if _, ok := t.claim(id); !ok {
		<-ch
	}
}

// sendFailed classifies a failed write to seat. A deadline is a wedged but
// live peer and keeps the sticky-abort contract; a broken connection without
// a GOODBYE is the write side of crash detection — the reader's EOF may not
// have landed yet when a send to a freshly dead peer fails, and the writer
// must not poison the cluster for a death the survivors can recover from.
// It returns the error the caller surfaces.
func (t *Transport) sendFailed(seat int, err error) error {
	if errors.Is(err, pgas.ErrTimeout) || t.departed[seat].Load() {
		t.Abort(err.Error())
		return err
	}
	t.peerCrashed(seat, err)
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.evictErrLocked(seat)
}

// stall names what a blocked call waits on, for await's deadline path.
type stall struct {
	seat  int    // a request's destination seat; -1 for a round
	round uint64 // a rendezvous generation or a membership epoch
	view  bool   // any seat that left the view explains the silence
}

// await is the transport's one blocking wait: it returns what done yields,
// or ErrTransport charged to th and op once the transport aborts. A missed
// deadline is put down first to a departure — a request's crashed
// destination, or for a view round any seat that left — whose
// EvictionError wins; otherwise it is a sticky ErrTimeout.
func await[T any](t *Transport, th *pgas.Thread, op string, done <-chan T, on stall) (T, error) {
	var zero T
	timer := time.NewTimer(t.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r, nil
	case <-t.abortCh:
		return zero, t.abortErr(th, op)
	case <-timer.C:
	}
	t.rdvMu.Lock()
	var err error
	if on.seat >= 0 && t.gone[on.seat] == seatCrashed {
		err = t.evictErrLocked(on.seat)
	} else if on.view {
		err = t.leftViewLocked()
	}
	t.rdvMu.Unlock()
	if err != nil {
		return zero, err
	}
	if on.seat >= 0 {
		err = pgas.Errorf(pgas.ErrTimeout, tid(th), op, "%s: no response within %v", t.edge(on.seat), t.cfg.Timeout)
	} else {
		err = pgas.Errorf(pgas.ErrTimeout, tid(th), op, "node %d: round %d incomplete after %v", t.cfg.Node, on.round, t.cfg.Timeout)
	}
	t.Abort(err.Error())
	return zero, err
}

// route is every data-plane call's prologue: virtual node's original seat,
// this node's own at once (served from the window table), a remote one
// unless out of range, the transport aborted, or the seat known crashed.
func (t *Transport) route(th *pgas.Thread, op string, node int) (int, error) {
	vs := t.liveView.Load()
	if node == vs.vnode {
		return t.cfg.Node, nil
	}
	if node < 0 || node >= len(vs.seats) {
		return 0, pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d out of range [0,%d)", node, len(vs.seats))
	}
	seat := vs.seats[node]
	if t.aborted() {
		return 0, t.abortErr(th, op)
	}
	if err := t.crashedFast(seat); err != nil {
		return 0, err
	}
	return seat, nil
}

// call is the one request/response exchange: register the waiter, send h
// under its request id with payload, and await the answer. It returns the
// response status; a GET's words land in dst.
func (t *Transport) call(th *pgas.Thread, op string, seat int, h header, payload, dst []int64) (uint8, error) {
	id, ch := t.register(seat, dst)
	h.reqID = id
	if err := t.send(seat, h, payload, true); err != nil {
		t.abandon(id, ch)
		return 0, t.sendFailed(seat, err)
	}
	r, err := await(t, th, op, ch, stall{seat: seat})
	if err != nil {
		t.abandon(id, ch)
		return 0, err
	}
	return r.status, r.err
}

// Get reads len(dst) elements of virtual node's window w starting at off.
func (t *Transport) Get(th *pgas.Thread, node int, w pgas.Win, off int64, dst []int64) error {
	const op = "wire Get"
	seat, err := t.route(th, op, node)
	if err != nil {
		return err
	}
	if seat == t.cfg.Node {
		t.rmu.Lock()
		err = t.Read(th, op, w, off, dst)
		t.rmu.Unlock()
		return err
	}
	st, err := t.call(th, op, seat, header{typ: frGet, w: w, off: off, count: int64(len(dst))}, nil, dst)
	if err == nil && st != stOK {
		err = pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d rejected window %+v [%d,%d)", node, w, off, off+int64(len(dst)))
	}
	return err
}

// Put writes src into virtual node's window w starting at off. The frame is
// buffered on the destination's connection and flushed by the next
// ordering frame (GET, PUTMIN, BARRIER, EVICT, ABORT) to that node.
func (t *Transport) Put(th *pgas.Thread, node int, w pgas.Win, off int64, src []int64) error {
	const op = "wire Put"
	seat, err := t.route(th, op, node)
	if err != nil {
		return err
	}
	if seat == t.cfg.Node {
		t.rmu.Lock()
		err = t.Write(th, op, w, off, src)
		t.rmu.Unlock()
		return err
	}
	if err := t.send(seat, header{typ: frPut, w: w, off: off, count: int64(len(src))}, src, false); err != nil {
		return t.sendFailed(seat, err)
	}
	return nil
}

// PutMin atomically lowers virtual node's window element to v if smaller.
func (t *Transport) PutMin(th *pgas.Thread, node int, w pgas.Win, off int64, v int64) (bool, error) {
	const op = "wire PutMin"
	seat, err := t.route(th, op, node)
	if err != nil {
		return false, err
	}
	if seat == t.cfg.Node {
		t.rmu.Lock()
		stored, err := t.Min(th, op, w, off, v)
		t.rmu.Unlock()
		return stored, err
	}
	st, err := t.call(th, op, seat, header{typ: frPutMin, w: w, off: off, count: 1}, []int64{v}, nil)
	if err == nil && st == stBadWindow {
		err = pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d rejected window %+v off %d", node, w, off)
	}
	return err == nil && st == stStored, err
}
