// The exchange engine: one execution path for all collectives.
//
// Every collective is phase 2 of Algorithm 2 run against a built Plan —
// barrier, serve every peer, barrier, finish — and the collectives differ
// only in how a peer's segment is served (gather, scatter with a combining
// rule, or plain routing), how results reach the caller (permute back,
// nothing, or a concatenated receive buffer), and which requests a one-shot
// build may leave out. Those choices are a serveOp; exec is the engine that
// runs one. The seven public one-shot collectives in collective.go are
// one-line calls into Comm.once, which builds the scratch plan as the op
// says and execs it; a caller-held Plan execs GetD, skipping the rebuild —
// and gathers several arrays at the same indices by executing one build
// once per array.
package collective

import (
	"errors"
	"slices"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// serveOp is one pluggable collective: a serve-phase body, a finish-phase
// body, the flags the engine needs to stage its inputs and outputs, and
// what a one-shot build of the op may drop. Descriptors are package-level
// values so dispatching through them never allocates.
type serveOp struct {
	kind string // trace/diagnostic name
	// hasValues: the caller passes per-request values, aligned into the
	// plan's grouped layout before the first barrier on every execution.
	hasValues bool
	// gathers: finish permutes the answers into the caller's out.
	gathers bool
	// allowFiltered: the op's semantics survive the offload filter (GetD
	// substitutes the pinned value, SetDMin drops the no-op write), so a
	// build for it honors Options.Offload.
	allowFiltered bool
	// combine is what a one-shot build drops beyond offload (see
	// keyPass): repeats by position (GetDCombined), or writes that
	// cannot win by value (SetDMin, whose build then skips the IDCache).
	combine combineRule
	// serve returns a classified error when a transfer faults under armed
	// chaos (nil always, on the fault-free transport): the whole phase is
	// re-executable from the published matrices, so the engine replays it.
	serve  func(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error
	finish func(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out []int64)
}

// combineRule selects the request filter's combining (see keyPass).
type combineRule uint8

const (
	combineNone  combineRule = iota
	combineIndex             // a repeated index is asked once; finish copies the keeper's answer
	combineMin               // a write beaten by an earlier one to its index is dropped
)

var (
	opGetD          = &serveOp{kind: "GetD", gathers: true, allowFiltered: true, serve: serveGather, finish: finishPermute}
	opGetDCombined  = &serveOp{kind: "GetD", gathers: true, allowFiltered: true, combine: combineIndex, serve: serveGather, finish: finishPermute}
	opSetD          = &serveOp{kind: "SetD", hasValues: true, serve: serveScatterSet, finish: finishNone}
	opSetDMin       = &serveOp{kind: "SetDMin", hasValues: true, allowFiltered: true, combine: combineMin, serve: serveScatterMin, finish: finishNone}
	opExchange      = &serveOp{kind: "Exchange", serve: serveRoute, finish: finishNone}
	opExchangePairs = &serveOp{kind: "ExchangePairs", hasValues: true, serve: serveRoutePairs, finish: finishNone}
)

// exec runs one execution of op against plan p: stage per-execution
// inputs, barrier, serve every peer, barrier, deliver results. It charges
// exactly what the monolithic collectives charged per barrier interval —
// the value alignment that the grouping sort used to do moves here (it
// must rerun per execution), but stays in the same pre-serve interval.
//
// values are the input values of hasValues ops; out the gather destination
// (nil for scatter and route ops, whose results are the array mutation or
// the thread's receive scratch).
func (c *Comm) exec(th *pgas.Thread, p *Plan, op *serveOp, d *pgas.SharedArray, values, out []int64) {
	pt := &p.pts[th.ID]
	opts := &pt.opts
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
	c.serveRetry(th, p, op, d, opts)
	th.Barrier()
	op.finish(c, th, p, pt, out)
	pt.execs++
}

// serveRetry runs op's serve phase through pgas's one retry loop,
// replaying it when a transfer faults under armed chaos. A serve phase is a
// pure function of the published matrices and the peers' grouped
// request/value buffers — none of which it consumes — so re-execution is
// safe with nothing to undo: a gather re-pulls and re-pushes the same
// segments (overwriting any partially delivered or damaged words with
// identical clean ones), and a scatter faults only while it pulls, before
// it writes any element (see serveScatter). Exhausting the attempt budget
// raises a classified ErrTimeout through the barrier-poisoning path, so
// peers unwind instead of hanging at the post-serve barrier.
func (c *Comm) serveRetry(th *pgas.Thread, p *Plan, op *serveOp, d *pgas.SharedArray, opts *Options) {
	th.Retry(func() error { return op.serve(c, th, p, d, opts) },
		func() (string, string) { return "serve " + op.kind, "serve phase gave up" })
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

// serveGather is GetD's serve phase: this thread answers every peer's
// request segment against its own block of d1. All peers' segments are
// pulled first (one coalesced message each, in schedule order), then
// served in place — each answer written straight into the requester's
// plan receive buffer — and charged as one blocked gather over their
// concatenation: the local block is loaded at most once per collective,
// matching equation 5's n*L_M term. The pushes back follow.
func serveGather(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error {
	i := th.ID
	local, base := d.ServeView(i)
	st := &c.ts[i]

	total, staged := c.planSegments(th, p, st, opts)
	st.stage = st.grow(st.stage, int(staged))
	st.vals = st.grow(st.vals, int(staged))
	for _, seg := range st.segs {
		if err := c.pull(th, p, st, seg, opts); err != nil {
			return err
		}
	}

	// The block stays cache-warm across the segments, so first-touch
	// tracking resets once per collective.
	st.scr.Reset(int64(len(local)))
	distinct := int64(0)
	for _, seg := range st.segs {
		req, out := c.segBuf(p, seg, pgas.WinPlanReq, st.stage), c.segBuf(p, seg, pgas.WinPlanVal, st.vals)
		distinct += c.access(local, req, base, out, sched.OpGet, &st.scr)
	}
	sched.ChargeAccess(th, total, distinct, int64(len(local)), opts.VirtualThreads, opts.LocalCpy)

	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), seg.k, false, opts)
		if err := c.push(th, p, st, seg); err != nil {
			return err
		}
	}
	return nil
}

// serveScatter is the Set* serve phase: pull every peer's index and value
// segments, then apply them in place, in schedule order, with the op's
// combining rule, charged as one blocked scatter over their concatenation.
// Every transfer that can fault happens in the pull loop, before the first
// element is written, so a failed attempt leaves d untouched and serveRetry
// replays it with nothing to roll back. A future scatter that can fault
// after it has written, or whose rule is not idempotent as SetD's
// arbitrary write and SetDMin's priority write are, must bring its own
// rollback.
func (c *Comm) serveScatter(th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options, op sched.Op) error {
	i := th.ID
	local, base := d.ServeView(i)
	st := &c.ts[i]

	total, staged := c.planSegments(th, p, st, opts)
	st.stage = st.grow(st.stage, int(staged))
	st.inVal = st.grow(st.inVal, int(staged))
	for _, seg := range st.segs {
		if err := c.pull(th, p, st, seg, opts); err != nil {
			return err
		}
		// Pull the peer's value segment alongside the indices.
		c.transferCost(th, int(seg.peer), seg.k, true, opts)
		if err := c.fetch(th, p, seg, pgas.WinPlanVal, st.inVal); err != nil {
			return err
		}
		if err := c.xferFault(th, int(seg.peer), nil); err != nil {
			return err
		}
	}

	st.scr.Reset(int64(len(local)))
	distinct := int64(0)
	for _, seg := range st.segs {
		req, vals := c.segBuf(p, seg, pgas.WinPlanReq, st.stage), c.segBuf(p, seg, pgas.WinPlanVal, st.inVal)
		distinct += c.access(local, req, base, vals, op, &st.scr)
	}
	sched.ChargeAccess(th, total, distinct, int64(len(local)), opts.VirtualThreads, opts.LocalCpy)
	return nil
}

func serveScatterSet(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error {
	return c.serveScatter(th, p, d, opts, sched.OpSet)
}

func serveScatterMin(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error {
	op := sched.OpMin
	if c.fault == FaultMaxInsteadOfMin {
		op = sched.OpMax
	}
	return c.serveScatter(th, p, d, opts, op)
}

// serveRoute is Exchange's serve phase: copy every peer's grouped segment
// destined for this thread into the receive buffer, concatenated in
// schedule order. There is no local array access — the routed items are
// the payload.
func serveRoute(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error {
	st := &c.ts[th.ID]
	total, _ := c.planSegments(th, p, st, opts)
	st.recv = st.grow(st.recv, int(total))
	at := int64(0)
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), seg.k, true, opts)
		dst := st.recv[at : at+seg.k]
		at += seg.k
		if err := c.peerCopy(th, p, seg, pgas.WinPlanReq, dst); err != nil {
			return err
		}
		th.ChargeSeq(sim.CatCopy, seg.k)
		if err := c.xferFault(th, int(seg.peer), dst); err != nil {
			return err
		}
	}
	st.routeTotal = total
	return nil
}

// serveRoutePairs is ExchangePairs' serve phase: one coalesced message
// per peer carries indices and values together, delivered aligned.
func serveRoutePairs(c *Comm, th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options) error {
	st := &c.ts[th.ID]
	total, _ := c.planSegments(th, p, st, opts)
	st.recv = st.grow(st.recv, int(total))
	st.recv2 = st.grow(st.recv2, int(total))
	at := int64(0)
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), 2*seg.k, true, opts)
		dst, dstVal := st.recv[at:at+seg.k], st.recv2[at:at+seg.k]
		at += seg.k
		if err := c.peerCopy(th, p, seg, pgas.WinPlanReq, dst); err != nil {
			return err
		}
		if err := c.peerCopy(th, p, seg, pgas.WinPlanVal, dstVal); err != nil {
			return err
		}
		th.ChargeSeq(sim.CatCopy, 2*seg.k)
		// One combined message carries indices and values; one verdict
		// covers it (damage lands in the value half).
		if err := c.xferFault(th, int(seg.peer), dstVal); err != nil {
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

// finishNone is the finish phase of ops whose results are the array
// mutation (Set*) or the thread's receive scratch (Exchange*).
func finishNone(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out []int64) {
}

// finishPermute is GetD's finish phase: permute received values back to
// request order (Algorithm 2 step 6) — a dense permutation of the receive
// buffer — then answer what the request filter kept from the owners: the
// pinned D[0] = 0 at offload-dropped positions (the filter paid for that
// pass at build time), and at every combined duplicate its keeper's value,
// a second, shorter dense permutation.
func finishPermute(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out []int64) {
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
