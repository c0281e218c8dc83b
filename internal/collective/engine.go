// The exchange engine: one execution path for all collectives.
//
// Every collective is phase 2 of Algorithm 2 run against a built Plan —
// barrier, serve every peer, barrier, finish. A serveOp is plain data
// saying how a peer's segment is served (serveAccess reads or writes the
// owned block under a rule: gather, or scatter with a combining rule;
// serveRoute copies it), whether answers are pushed back and permuted into
// the caller's out, and which requests a one-shot build may leave out. The
// six public one-shot collectives in collective.go are one-line calls into
// Comm.once, which builds the scratch plan as the op says and execs it; a
// caller-held Plan execs GetD, skipping the rebuild — and gathers several
// arrays at the same indices by executing one build once per array.
package collective

import (
	"errors"
	"slices"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// serveOp is one collective, as data: the flags the engine needs to stage
// its inputs and outputs, how its serve phase treats each peer segment, and
// what a one-shot build of the op may drop. Descriptors are package-level
// values, so running one never allocates.
type serveOp struct {
	kind string // trace/diagnostic name
	// hasValues: the caller passes per-request values, aligned into the
	// plan's grouped layout before the first barrier on every execution.
	hasValues bool
	gathers   bool // answers are pushed back and permuted into the caller's out
	// allowFiltered: the op's semantics survive the offload filter (GetD
	// substitutes the pinned value, SetDMin drops the no-op write), so a
	// build for it honors Options.Offload.
	allowFiltered bool
	// combine is what a one-shot build drops beyond offload (see
	// keyPass): repeats by position (GetDCombined), or writes that
	// cannot win by value (SetDMin, whose build then skips the IDCache).
	combine combineRule
	// route: serveRoute copies the segments into the receive buffers;
	// otherwise serveAccess accesses the owned block under rule.
	route bool
	rule  sched.Op
}

// combineRule selects the request filter's combining (see keyPass).
type combineRule uint8

const (
	combineNone  combineRule = iota
	combineIndex             // a repeated index is asked once; finish copies the keeper's answer
	combineMin               // a write beaten by an earlier one to its index is dropped
)

var (
	opGetD          = &serveOp{kind: "GetD", gathers: true, allowFiltered: true, rule: sched.OpGet}
	opGetDCombined  = &serveOp{kind: "GetD", gathers: true, allowFiltered: true, combine: combineIndex, rule: sched.OpGet}
	opSetD          = &serveOp{kind: "SetD", hasValues: true, rule: sched.OpSet}
	opSetDMin       = &serveOp{kind: "SetDMin", hasValues: true, allowFiltered: true, combine: combineMin, rule: sched.OpMin}
	opExchange      = &serveOp{kind: "Exchange", route: true}
	opExchangePairs = &serveOp{kind: "ExchangePairs", hasValues: true, route: true}
)

// exec runs one execution of op against plan p: stage per-execution
// inputs, barrier, serve every peer, barrier, deliver results. The value
// alignment reruns per execution, charged in the pre-serve interval.
//
// values are the input values of hasValues ops; out the gather destination
// (nil for scatter and route ops, whose results are the array mutation or
// the thread's receive scratch).
func (c *Comm) exec(th *pgas.Thread, p *Plan, op *serveOp, d *pgas.SharedArray, values, out []int64) {
	pt := &p.pts[th.ID]
	k := pt.k

	if c.fault == FaultCorruptPlanPermute && pt.execs >= 1 && k >= 2 {
		// A reused plan whose permutation was clobbered between
		// executions: the grouped layout no longer maps back to request
		// order (see fault.go).
		pt.pos[0], pt.pos[1] = pt.pos[1], pt.pos[0]
	}

	if op.hasValues {
		// Align this execution's values with the grouped request layout —
		// the pass groupByOwner used to run, charged identically.
		out := pt.val[:k]
		for pp, j := range pt.pos[:k] {
			out[pp] = values[j]
		}
		chargePermute(&th.Clock, th.Runtime().Model(), sim.CatSort, int64(k))
	}
	if c.tracer != nil && pt.execs >= 1 {
		c.tracer.PlanReuse(th.ID, int64(k))
	}

	th.Barrier()
	// The serve runs through pgas's one retry loop, replayed when a
	// transfer faults under armed chaos. It consumes none of what it reads
	// (the published matrices, the peers' grouped buffers), a gather's
	// replay rewrites the same words clean, and a scatter faults only
	// before it writes (see serveAccess). Exhausting the attempt budget
	// raises a classified ErrTimeout through the barrier-poisoning path,
	// so peers unwind instead of hanging at the post-serve barrier.
	th.Retry(func() error {
		if op.route {
			return c.serveRoute(th, p, op, &pt.opts)
		}
		return c.serveAccess(th, p, op, d, &pt.opts)
	}, func() (string, string) { return "serve " + op.kind, "serve phase gave up" })
	th.Barrier()
	if op.gathers {
		c.finishPermute(th, pt, out)
	}
	pt.execs++
}

// xferFault consults the chaos injector for one coalesced engine transfer
// whose received payload is dst. A push's payload is the requester's plan
// receive segment (or the staged answers bound for it), and a route op's
// pull lands in this thread's receive buffer: both are written only by
// this thread and read only after the post-serve barrier, so a corrupt
// verdict may damage them in place — the replay rewrites the same slots
// with clean words. A serve that reads the pulled words in place, out of
// the peer's own request and value buffers, passes nil: a verdict must
// never touch those, and a corrupt pull aborts the attempt before any of
// its words is used. Same-node transfers ride shared memory and never
// fault.
func (c *Comm) xferFault(th *pgas.Thread, peer int, dst []int64) error {
	if th.SameNode(peer) {
		return nil
	}
	return th.TransportFault(sim.CatComm, dst)
}

// sameProcess reports whether peer's plan buffers live in this process's
// memory: always on a shared fabric, node-locally on a wire one.
func (c *Comm) sameProcess(peer int) bool {
	return !c.wire || peer/c.tpn == c.node
}

// planSegments fills st.segs with the peer segments thread th serves under
// the plan's published matrices, in schedule order, and returns their
// total element count and how many of them belong to peers in another
// process (the wire staging a serve needs). The stale-matrix fault
// perturbs a reused plan's offsets here (see fault.go).
func (c *Comm) planSegments(th *pgas.Thread, p *Plan, st *threadState, opts *Options) (total, staged int64) {
	i := th.ID
	stale := c.fault == FaultStalePlanMatrices && p.pts[i].execs >= 1
	st.segs = st.segs[:0]
	for r := 0; r < c.s; r++ {
		peer := peerAt(i, r, c.s, opts.Circular)
		k := p.smat[i*c.s+peer]
		if k == 0 {
			continue
		}
		off := p.pmat[i*c.s+peer]
		if stale && off > 0 {
			off--
		}
		seg := segment{peer: int32(peer), off: off, k: k}
		if !c.sameProcess(peer) {
			seg.pos = staged
			staged += k
		}
		st.segs = append(st.segs, seg)
		total += k
	}
	return total, staged
}

// segBuf returns seg's words of the peer's plan buffer of the given kind
// when the peer shares this process, and seg's slot of the wire staging
// buf otherwise.
func (c *Comm) segBuf(p *Plan, seg segment, kind pgas.WinKind, staging []int64) []int64 {
	if !c.sameProcess(int(seg.peer)) {
		return staging[seg.pos : seg.pos+seg.k]
	}
	pt := &p.pts[seg.peer]
	buf := pt.req
	if kind == pgas.WinPlanVal {
		buf = pt.val
	}
	return buf[seg.off : seg.off+seg.k]
}

// fetch reads seg's words of the peer's plan window of the given kind into
// the wire staging when the peer lives in another process; a peer in this
// one is read in place, so there is nothing to fetch. A real wire failure
// is classified and aborts the serve attempt.
func (c *Comm) fetch(th *pgas.Thread, p *Plan, seg segment, kind pgas.WinKind, staging []int64) error {
	if c.sameProcess(int(seg.peer)) {
		return nil
	}
	return c.peerCopy(th, p, seg, kind, staging[seg.pos:seg.pos+seg.k])
}

// pull fetches seg's request words and charges the coalesced index pull
// and their translation to block-local indices, which the serve's segment
// primitive performs as it reads them. Under armed chaos the pull may
// fault: the caller must then abort the serve attempt.
func (c *Comm) pull(th *pgas.Thread, p *Plan, st *threadState, seg segment, opts *Options) error {
	if err := c.fetch(th, p, seg, pgas.WinPlanReq, st.stage); err != nil {
		return err
	}
	if c.tracer != nil {
		c.tracer.Transfer(th.ID, int(seg.peer), seg.k)
	}
	chargePull(&th.Clock, th.Runtime().Model(), c.tpn, seg.k, th.SameNode(int(seg.peer)), opts)
	return c.xferFault(th, int(seg.peer), nil)
}

// chargePull charges the pull of a segment's k request words (near: from
// the thread's node) and their translation to block-local indices.
func chargePull(clk *sim.Clock, m *sim.Model, tpn int, k int64, near bool, opts *Options) {
	chargeTransfer(clk, m, tpn, k, near, true, opts)
	clk.Charge(sim.CatWork, m.Ops(k))
}

// push delivers seg's answers into the requester's plan receive window.
// A requester in this process already holds them — the
// gather wrote into its buffer — and the chaos verdict lands there. Over
// the wire the verdict is drawn on the staged answers before the frame
// leaves: a drop withholds the frame entirely, a corruption sends the
// damaged payload (the peer's CRC catches it — delivered-but-detected),
// and the serve replay re-sends clean words either way. The draw order and
// count are identical to the shared fabric, so the fault schedule is
// backend-independent.
func (c *Comm) push(th *pgas.Thread, p *Plan, st *threadState, seg segment) error {
	out := c.segBuf(p, seg, pgas.WinPlanVal, st.vals)
	verdict := c.xferFault(th, int(seg.peer), out)
	if c.sameProcess(int(seg.peer)) || verdict != nil && errors.Is(verdict, pgas.ErrTransport) {
		return verdict
	}
	if err := c.tr.Put(th, int(seg.peer)/c.tpn, pgas.Win{Kind: pgas.WinPlanVal, ID: p.wid, Sub: seg.peer}, seg.off, out); err != nil {
		panic(err)
	}
	return verdict
}

// access serves one peer segment with op — a gather into vals, or a
// scatter of vals — and returns its first touches. Under the
// segment-misalignment fault the serve reads the segment rotated by one,
// so slot j takes the index of slot j+1 and the indices stay in bounds.
func (c *Comm) access(local, req []int64, base int64, vals []int64, op sched.Op, scr *sched.Scratch) int64 {
	if c.fault != FaultSegmentOffByOne {
		return sched.Access(local, req, base, vals, op, scr)
	}
	return sched.Access(local, req[1:], base, vals, op, scr) +
		sched.Access(local, req[:1], base, vals[len(req)-1:], op, scr)
}

// serveAccess is the serve phase of every op that reads or writes the
// owned block (Algorithm 2 steps 3-5), d's ThreadCover block. All peers'
// segments are pulled first (one coalesced message each, in schedule
// order; a scatter's values alongside), then served in place under the
// op's rule — a gather writes each answer straight into the requester's
// plan receive buffer — and charged as one blocked access: the block is
// loaded at most once per collective (equation 5's n*L_M term). A
// gather's pushes back follow.
//
// A scatter makes every transfer in the pull loop, before it writes, and
// SetD's arbitrary and SetDMin's priority writes are idempotent, so its
// replay needs no rollback; a scatter that breaks either must bring one.
func (c *Comm) serveAccess(th *pgas.Thread, p *Plan, op *serveOp, d *pgas.SharedArray, opts *Options) error {
	lo, hi := d.ThreadCover(th.ID)
	local, st := d.Raw()[lo:hi], &c.ts[th.ID]

	total, staged := c.planSegments(th, p, st, opts)
	st.stage = st.grow(st.stage, int(staged))
	st.vals = st.grow(st.vals, int(staged))
	for _, seg := range st.segs {
		if err := c.pull(th, p, st, seg, opts); err != nil {
			return err
		}
		if !op.hasValues {
			continue
		}
		c.transferCost(th, int(seg.peer), seg.k, true, opts)
		if err := c.fetch(th, p, seg, pgas.WinPlanVal, st.vals); err != nil {
			return err
		}
		if err := c.xferFault(th, int(seg.peer), nil); err != nil {
			return err
		}
	}

	rule := op.rule
	if rule == sched.OpMin && c.fault == FaultMaxInsteadOfMin {
		rule = sched.OpMax
	}
	// The block stays cache-warm across the segments, so first-touch
	// tracking resets once per collective.
	st.scr.Reset(hi - lo)
	distinct := int64(0)
	for _, seg := range st.segs {
		req, vals := c.segBuf(p, seg, pgas.WinPlanReq, st.stage), c.segBuf(p, seg, pgas.WinPlanVal, st.vals)
		distinct += c.access(local, req, lo, vals, rule, &st.scr)
	}
	sched.ChargeAccess(th, total, distinct, hi-lo, opts.VirtualThreads, opts.LocalCpy)

	if !op.gathers {
		return nil
	}
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), seg.k, false, opts)
		if err := c.push(th, p, st, seg); err != nil {
			return err
		}
	}
	return nil
}

// serveRoute is the route ops' serve phase: copy every peer's segment for
// this thread into the receive buffer, concatenated in schedule order, and
// for ExchangePairs its values into the second one, aligned, in one message
// of twice the words. No array is accessed: the routed items are the payload.
func (c *Comm) serveRoute(th *pgas.Thread, p *Plan, op *serveOp, opts *Options) error {
	st := &c.ts[th.ID]
	total, _ := c.planSegments(th, p, st, opts)
	st.recv = st.grow(st.recv, int(total))
	w := int64(1)
	if op.hasValues {
		st.recv2 = st.grow(st.recv2, int(total))
		w = 2
	}
	at := int64(0)
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), w*seg.k, true, opts)
		dst := st.recv[at : at+seg.k]
		if err := c.peerCopy(th, p, seg, pgas.WinPlanReq, dst); err != nil {
			return err
		}
		if op.hasValues {
			dst = st.recv2[at : at+seg.k]
			if err := c.peerCopy(th, p, seg, pgas.WinPlanVal, dst); err != nil {
				return err
			}
		}
		at += seg.k
		th.ChargeSeq(sim.CatCopy, w*seg.k)
		// One verdict covers the message; with values, damage lands in
		// the value half.
		if err := c.xferFault(th, int(seg.peer), dst); err != nil {
			return err
		}
	}
	st.routeTotal = total
	return nil
}

// peerCopy copies seg's words of the peer's plan window of the given kind
// into dst: a memory copy when the peer shares this process, one wire read
// otherwise.
func (c *Comm) peerCopy(th *pgas.Thread, p *Plan, seg segment, kind pgas.WinKind, dst []int64) error {
	if c.sameProcess(int(seg.peer)) {
		copy(dst, c.segBuf(p, seg, kind, nil))
		return nil
	}
	return c.tr.Get(th, int(seg.peer)/c.tpn, pgas.Win{Kind: kind, ID: p.wid, Sub: seg.peer}, seg.off, dst)
}

// finishPermute is GetD's finish phase: permute received values back to
// request order (Algorithm 2 step 6) — a dense permutation of the receive
// buffer — then answer what the request filter kept from the owners: the
// pinned D[0] = 0 at offload-dropped positions (the filter paid for that
// pass at build time), and at every combined duplicate its keeper's value,
// a second, shorter dense permutation.
func (c *Comm) finishPermute(th *pgas.Thread, pt *planThread, out []int64) {
	k := pt.k
	chargePermute(&th.Clock, th.Runtime().Model(), sim.CatIrregular, int64(k))
	val, pos := pt.val[:k], pt.pos[:k]
	if c.fault == FaultDropPermute {
		// Values land in owner-grouped order, as if the permute were
		// missing: the pp-th kept position, in request order, takes the
		// pp-th grouped value.
		pos = slices.Clone(pos)
		slices.Sort(pos)
	}
	for pp, j := range pos {
		out[j] = val[pp]
	}
	for _, j := range pt.dropIdx[:pt.drops] {
		out[j] = 0
	}
	if pt.dups == 0 {
		return
	}
	chargePermute(&th.Clock, th.Runtime().Model(), sim.CatIrregular, int64(pt.dups))
	// The filter wrote its records from the end of the tails backwards:
	// walking them down visits the duplicates in request order.
	dup, keeper := pt.dropIdx[pt.n-pt.dups:pt.n], pt.keeper[pt.n-pt.dups:pt.n]
	for r := len(dup) - 1; r >= 0; r-- {
		from := keeper[r]
		if c.fault == FaultWrongKeeper {
			from = keeper[(r+1)%len(keeper)]
		}
		out[dup[r]] = out[from]
	}
}

// chargePermute charges a dense permutation of k words under cat.
func chargePermute(clk *sim.Clock, m *sim.Model, cat sim.Category, k int64) {
	ns, misses := m.DensePermute(k)
	clk.Charge(cat, ns)
	clk.CacheMisses += misses
}
