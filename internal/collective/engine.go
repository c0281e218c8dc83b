// The exchange engine: one execution path for all collectives.
//
// Every collective is phase 2 of Algorithm 2 run against a built Plan —
// barrier, serve every peer, barrier, finish — and the collectives differ
// only in how a peer's segment is served (gather, scatter with a combining
// rule, fused pair gather, or plain routing) and how results reach the
// caller (permute back, nothing, or a concatenated receive buffer). Those
// two choices are a serveOp; exec is the engine that runs one. The six
// public collectives in collective.go/exchange.go/pair.go are thin
// wrappers that build a scratch plan and exec it; Plan's execution methods
// exec a caller-held plan, skipping the rebuild.
package collective

import (
	"errors"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// serveOp is one pluggable collective: a serve-phase body, a finish-phase
// body, and the flags the engine needs to stage its inputs and outputs.
// Descriptors are package-level values so dispatching through them never
// allocates.
type serveOp struct {
	kind string // trace/diagnostic name
	// hasValues: the caller passes per-request values, aligned into the
	// plan's grouped layout before the first barrier on every execution.
	hasValues bool
	// pairRecv: the op delivers a second value stream (GetDPair), so the
	// plan's second receive buffer is sized before the first barrier.
	pairRecv bool
	// allowFiltered: the op's semantics survive the offload filter (GetD
	// substitutes the pinned value, SetDMin drops the no-op write).
	allowFiltered bool
	// mutates: the serve phase writes the local block of d1 (the Set*
	// scatters), so a chaos-armed replay snapshots and restores it.
	mutates bool
	// serve returns a classified error when a transfer faults under armed
	// chaos (nil always, on the fault-free transport): the whole phase is
	// re-executable from the published matrices, so the engine replays it.
	serve  func(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error
	finish func(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out1, out2 []int64)
}

var (
	opGetD          = &serveOp{kind: "GetD", allowFiltered: true, serve: serveGather, finish: finishPermute}
	opSetD          = &serveOp{kind: "SetD", hasValues: true, mutates: true, serve: serveScatterSet, finish: finishNone}
	opSetDMin       = &serveOp{kind: "SetDMin", hasValues: true, allowFiltered: true, mutates: true, serve: serveScatterMin, finish: finishNone}
	opSetDAdd       = &serveOp{kind: "SetDAdd", hasValues: true, mutates: true, serve: serveScatterAdd, finish: finishNone}
	opGetDPair      = &serveOp{kind: "GetDPair", pairRecv: true, serve: servePair, finish: finishPair}
	opExchange      = &serveOp{kind: "Exchange", serve: serveRoute, finish: finishNone}
	opExchangePairs = &serveOp{kind: "ExchangePairs", hasValues: true, serve: serveRoutePairs, finish: finishNone}
)

// exec runs one execution of op against plan p: stage per-execution
// inputs, barrier, serve every peer, barrier, deliver results. It charges
// exactly what the monolithic collectives charged per barrier interval —
// the value alignment that the grouping sort used to do moves here (it
// must rerun per execution), but stays in the same pre-serve interval.
//
// d2 is the second array of pair ops (nil otherwise); values the input
// values of hasValues ops; out1/out2 the gather destinations (nil for
// scatter and route ops, whose results are the array mutation or the
// thread's receive scratch).
func (c *Comm) exec(th *pgas.Thread, p *Plan, op *serveOp, d1, d2 *pgas.SharedArray, values []int64, out1, out2 []int64) {
	st := &c.ts[th.ID]
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
		chargePermute(th, sim.CatSort, int64(k))
	}
	if op.pairRecv {
		// Second receive buffer, aligned with pt.val, sized before peers
		// can deliver into it.
		pt.val2 = sched.Grow64(pt.val2, k, &st.growths)
		if c.wire {
			c.tr.Expose(pgas.Win{Kind: pgas.WinPlanVal2, ID: p.wid, Sub: int32(th.ID)}, pt.val2[:k])
		}
	}
	if c.tracer != nil && pt.execs >= 1 {
		c.tracer.PlanReuse(th.ID, int64(k))
	}

	th.Barrier()
	c.serveRetry(th, p, op, d1, d2, opts)
	th.Barrier()
	op.finish(c, th, p, pt, out1, out2)
	pt.execs++
}

// serveRetry runs op's serve phase, replaying it when a transfer faults
// under armed chaos. A serve phase is a pure function of the published
// matrices and the peers' grouped request/value buffers — none of which it
// consumes — so re-execution is safe: a gather re-pulls and re-pushes the
// same segments (overwriting any partially delivered or damaged words with
// identical clean ones), and a scatter's local-block mutation is rolled
// back from a pre-serve snapshot before each replay, making SetD, SetDMin,
// and SetDAdd idempotent under retry. Exhausting the attempt budget raises
// a classified ErrTimeout through the barrier-poisoning path, so peers
// unwind instead of hanging at the post-serve barrier.
//
// On the fault-free transport (chaos disarmed) serve never errors and this
// reduces to one direct call — no snapshot, no extra work.
func (c *Comm) serveRetry(th *pgas.Thread, p *Plan, op *serveOp, d1, d2 *pgas.SharedArray, opts *Options) {
	rt := th.Runtime()
	if !rt.ChaosArmed() {
		if err := op.serve(c, th, p, d1, d2, opts); err != nil {
			panic(err)
		}
		return
	}
	st := &c.ts[th.ID]
	var lo, hi, owned int64
	contig := d1 != nil && d1.Contiguous()
	if op.mutates {
		// Only the owner touches its owned elements during serve, so the
		// snapshot is race-free here between the surrounding barriers. A
		// contiguous (block) owner snapshots its slab with one copy; a
		// scattered owner walks exactly its owned set — restoring anything
		// wider would race peers serving their own interleaved elements.
		if contig {
			lo, hi = d1.LocalRange(th.ID)
			st.snap = sched.Grow64(st.snap, int(hi-lo), nil)
			copy(st.snap[:hi-lo], d1.Raw()[lo:hi])
		} else {
			owned = d1.OwnedCount(th.ID)
			st.snap = sched.Grow64(st.snap, int(owned), nil)
			d1.CopyOwnedOut(th.ID, st.snap[:owned])
		}
	}
	max := rt.ChaosMaxAttempts()
	var err error
	for attempt := 1; attempt <= max; attempt++ {
		if attempt > 1 {
			th.ChaosBackoff(attempt - 1)
			if op.mutates {
				if contig {
					copy(d1.Raw()[lo:hi], st.snap[:hi-lo])
				} else {
					d1.CopyOwnedIn(th.ID, st.snap[:owned])
				}
			}
		}
		if err = op.serve(c, th, p, d1, d2, opts); err == nil {
			return
		}
	}
	panic(pgas.Errorf(pgas.ErrTimeout, th.ID, "serve "+op.kind,
		"serve phase gave up after %d attempts: %v", max, err))
}

// xferFault consults the chaos injector for one coalesced engine transfer
// whose received payload is dst. Engine payloads are private scratch or
// plan-buffer segments written only by this thread and read only after the
// post-serve barrier, so a corrupt verdict may damage them in place — the
// replay rewrites the same slots with clean words. Same-node transfers
// ride shared memory and never fault.
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

// peerReq returns the peer's request segment for direct reading: the plan
// buffer itself when the peer shares this process, a wire read into the
// thread's staging scratch otherwise. The charge and the chaos verdict for
// the pull stay at the call sites (pullSegment), exactly as on the shared
// fabric; a real wire failure is classified and aborts the serve attempt.
func (c *Comm) peerReq(th *pgas.Thread, p *Plan, st *threadState, seg segment) ([]int64, error) {
	if c.sameProcess(int(seg.peer)) {
		return p.pts[seg.peer].req[seg.off : seg.off+seg.k], nil
	}
	st.stage = st.grow(st.stage, int(seg.k))
	dst := st.stage[:seg.k]
	err := c.tr.Get(th, int(seg.peer)/c.tpn, pgas.Win{Kind: pgas.WinPlanReq, ID: p.wid, Sub: seg.peer}, seg.off, dst)
	return dst, err
}

// peerCopy copies the peer's plan-window segment into dst: a memory copy
// when the peer shares this process, one wire read otherwise.
func (c *Comm) peerCopy(th *pgas.Thread, p *Plan, seg segment, kind pgas.WinKind, dst []int64) error {
	if c.sameProcess(int(seg.peer)) {
		pt := &p.pts[seg.peer]
		src := pt.req
		if kind == pgas.WinPlanVal {
			src = pt.val
		}
		copy(dst, src[seg.off:seg.off+seg.k])
		return nil
	}
	return c.tr.Get(th, int(seg.peer)/c.tpn, pgas.Win{Kind: kind, ID: p.wid, Sub: seg.peer}, seg.off, dst)
}

// pushPeer delivers src into the peer's plan receive window (val or val2).
// When the peer shares this process the words are copied and the chaos
// verdict lands on the destination, as always. Over the wire the verdict
// is drawn on the staged source before the frame leaves: a drop withholds
// the frame entirely, a corruption sends the damaged payload (the peer's
// CRC catches it — delivered-but-detected), and the serve replay re-sends
// clean words either way. The draw order and count are identical to the
// shared fabric, so the fault schedule is backend-independent.
func (c *Comm) pushPeer(th *pgas.Thread, p *Plan, seg segment, kind pgas.WinKind, src []int64) error {
	if c.sameProcess(int(seg.peer)) {
		pt := &p.pts[seg.peer]
		buf := pt.val
		if kind == pgas.WinPlanVal2 {
			buf = pt.val2
		}
		dst := buf[seg.off : seg.off+seg.k]
		copy(dst, src)
		return c.xferFault(th, int(seg.peer), dst)
	}
	verdict := c.xferFault(th, int(seg.peer), src)
	if verdict != nil && errors.Is(verdict, pgas.ErrTransport) {
		return verdict
	}
	if err := c.tr.Put(th, int(seg.peer)/c.tpn, pgas.Win{Kind: kind, ID: p.wid, Sub: seg.peer}, seg.off, src); err != nil {
		panic(err)
	}
	return verdict
}

// planSegments fills st.segs with the peer segments thread th serves under
// the plan's published matrices, in schedule order, and returns the total
// element count. The stale-matrix fault perturbs a reused plan's offsets
// here (see fault.go).
func (c *Comm) planSegments(th *pgas.Thread, p *Plan, st *threadState, opts *Options) int64 {
	i := th.ID
	stale := c.fault == FaultStalePlanMatrices && p.pts[i].execs >= 1
	total := int64(0)
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
		st.segs = append(st.segs, segment{peer: int32(peer), off: off, pos: total, k: k})
		total += k
	}
	return total
}

// pullSegment charges one coalesced index pull and translates the peer's
// global indices to block-local ones (honoring the segment-misalignment
// fault). Under armed chaos the pull may fault: the translated indices are
// then unusable and the caller must abort the serve attempt.
func (c *Comm) pullSegment(th *pgas.Thread, reqSeg, dst []int64, lo int64, peer int, opts *Options) error {
	c.transferCost(th, peer, int64(len(reqSeg)), true, opts)
	if c.fault == FaultSegmentOffByOne {
		// Misaligned segment view: slot j takes the index of slot j+1
		// (rotated within the segment to stay in bounds).
		for j := range reqSeg {
			dst[j] = reqSeg[(j+1)%len(reqSeg)] - lo
		}
	} else {
		for j, gix := range reqSeg {
			dst[j] = gix - lo
		}
	}
	th.ChargeOps(sim.CatWork, int64(len(reqSeg)))
	return c.xferFault(th, peer, dst)
}

// serveGather is GetD's serve phase: this thread answers every peer's
// request segment against its own block of d1. All peers' segments are
// pulled first (one coalesced message each, in schedule order), the whole
// concatenated request list is served with one blocked gather — the local
// block is loaded at most once per collective, matching equation 5's
// n*L_M term — and the per-peer value slices are pushed back into each
// requester's plan receive buffer.
func serveGather(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	i := th.ID
	local, base := d1.ServeView(i)
	st := &c.ts[i]

	total := c.planSegments(th, p, st, opts)
	st.local = st.grow(st.local, int(total))
	st.vals = st.grow(st.vals, int(total))
	for _, seg := range st.segs {
		reqSeg, err := c.peerReq(th, p, st, seg)
		if err != nil {
			return err
		}
		if err := c.pullSegment(th, reqSeg, st.local[seg.pos:seg.pos+seg.k], base, int(seg.peer), opts); err != nil {
			return err
		}
	}

	// The block stays cache-warm across the concatenated serve, so
	// first-touch tracking resets once per collective.
	st.scr.Reset(int64(len(local)))
	sched.Gather(th, local, st.local[:total], st.vals[:total], opts.VirtualThreads, opts.LocalCpy, &st.scr)

	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), seg.k, false, opts)
		if err := c.pushPeer(th, p, seg, pgas.WinPlanVal, st.vals[seg.pos:seg.pos+seg.k]); err != nil {
			return err
		}
	}
	return nil
}

// serveScatter is the Set* serve phase: pull every peer's index and value
// segments, then apply one blocked scatter with the op's combining rule
// over the concatenated list.
func (c *Comm) serveScatter(th *pgas.Thread, p *Plan, d *pgas.SharedArray, opts *Options, op sched.Op) error {
	i := th.ID
	local, base := d.ServeView(i)
	st := &c.ts[i]

	total := c.planSegments(th, p, st, opts)
	st.local = st.grow(st.local, int(total))
	st.inVal = st.grow(st.inVal, int(total))
	for _, seg := range st.segs {
		reqSeg, err := c.peerReq(th, p, st, seg)
		if err != nil {
			return err
		}
		if err := c.pullSegment(th, reqSeg, st.local[seg.pos:seg.pos+seg.k], base, int(seg.peer), opts); err != nil {
			return err
		}
		// Pull the peer's value segment alongside the indices.
		c.transferCost(th, int(seg.peer), seg.k, true, opts)
		dst := st.inVal[seg.pos : seg.pos+seg.k]
		if err := c.peerCopy(th, p, seg, pgas.WinPlanVal, dst); err != nil {
			return err
		}
		if err := c.xferFault(th, int(seg.peer), dst); err != nil {
			return err
		}
	}

	st.scr.Reset(int64(len(local)))
	sched.Scatter(th, local, st.local[:total], st.inVal[:total], op, opts.VirtualThreads, opts.LocalCpy, &st.scr)
	return nil
}

func serveScatterSet(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	return c.serveScatter(th, p, d1, opts, sched.OpSet)
}

func serveScatterMin(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	op := sched.OpMin
	if c.fault == FaultMaxInsteadOfMin {
		op = sched.OpMax
	}
	return c.serveScatter(th, p, d1, opts, op)
}

func serveScatterAdd(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	return c.serveScatter(th, p, d1, opts, sched.OpAdd)
}

// servePair is GetDPair's serve phase: pull each peer's indices once,
// gather from both local blocks, push both value streams back (into the
// requester's val and val2 plan buffers). Segments are served one peer at
// a time with per-array first-touch trackers, preserving the fused
// collective's original charge structure.
func servePair(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	i := th.ID
	// The pair arrays are allocated together and share a partition scheme,
	// so d1's translation base serves both views.
	local1, base := d1.ServeView(i)
	local2, _ := d2.ServeView(i)
	st := &c.ts[i]

	c.planSegments(th, p, st, opts)
	st.scr.Reset(int64(len(local1)))
	st.scr2.Reset(int64(len(local2)))
	for _, seg := range st.segs {
		k := seg.k
		st.local = st.grow(st.local, int(k))
		reqSeg, err := c.peerReq(th, p, st, seg)
		if err != nil {
			return err
		}
		if err := c.pullSegment(th, reqSeg, st.local[:k], base, int(seg.peer), opts); err != nil {
			return err
		}

		st.vals = st.grow(st.vals, int(k))
		sched.Gather(th, local1, st.local[:k], st.vals[:k], opts.VirtualThreads, opts.LocalCpy, &st.scr)
		c.transferCost(th, int(seg.peer), k, false, opts)
		if err := c.pushPeer(th, p, seg, pgas.WinPlanVal, st.vals[:k]); err != nil {
			return err
		}

		sched.Gather(th, local2, st.local[:k], st.vals[:k], opts.VirtualThreads, opts.LocalCpy, &st.scr2)
		c.transferCost(th, int(seg.peer), k, false, opts)
		if err := c.pushPeer(th, p, seg, pgas.WinPlanVal2, st.vals[:k]); err != nil {
			return err
		}
	}
	return nil
}

// serveRoute is Exchange's serve phase: pull every peer's grouped segment
// destined for this thread into the receive scratch, concatenated in
// schedule order. There is no local array access — the routed items are
// the payload.
func serveRoute(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	st := &c.ts[th.ID]
	total := c.planSegments(th, p, st, opts)
	st.inVal = st.grow(st.inVal, int(total))
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), seg.k, true, opts)
		dst := st.inVal[seg.pos : seg.pos+seg.k]
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
func serveRoutePairs(c *Comm, th *pgas.Thread, p *Plan, d1, d2 *pgas.SharedArray, opts *Options) error {
	st := &c.ts[th.ID]
	total := c.planSegments(th, p, st, opts)
	st.local = st.grow(st.local, int(total))
	st.inVal = st.grow(st.inVal, int(total))
	for _, seg := range st.segs {
		c.transferCost(th, int(seg.peer), 2*seg.k, true, opts)
		if err := c.peerCopy(th, p, seg, pgas.WinPlanReq, st.local[seg.pos:seg.pos+seg.k]); err != nil {
			return err
		}
		dstVal := st.inVal[seg.pos : seg.pos+seg.k]
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

// finishNone is the finish phase of ops whose results are the array
// mutation (Set*) or the thread's receive scratch (Exchange*).
func finishNone(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out1, out2 []int64) {
}

// finishPermute is GetD's finish phase: permute received values back to
// request order (Algorithm 2 step 6) — a dense permutation of the receive
// buffer — then answer what the request filter kept from the owners: the
// pinned D[0] = 0 at offload-dropped positions (the filter paid for that
// pass at build time), and at every combined duplicate its keeper's value,
// a second, shorter dense permutation.
func finishPermute(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out1, out2 []int64) {
	k := pt.k
	chargePermute(th, sim.CatIrregular, int64(k))
	val := pt.val[:k]
	switch {
	case c.fault != FaultDropPermute:
		for pp, j := range pt.pos[:k] {
			out1[j] = val[pp]
		}
	case pt.filtered:
		// Values land in owner-grouped order, as if the permute were
		// missing.
		for pp, j := range pt.outIdx[:k] {
			out1[j] = val[pp]
		}
	default:
		copy(out1[:k], val)
	}
	for _, j := range pt.dropIdx[:pt.drops] {
		out1[j] = 0
	}
	if pt.dups == 0 {
		return
	}
	chargePermute(th, sim.CatIrregular, int64(pt.dups))
	// The filter wrote its records from the end of the tails backwards:
	// walking them down visits the duplicates in request order.
	dup, keeper := pt.dropIdx[pt.n-pt.dups:pt.n], pt.outIdx[pt.n-pt.dups:pt.n]
	for r := len(dup) - 1; r >= 0; r-- {
		from := keeper[r]
		if c.fault == FaultWrongKeeper {
			from = keeper[(r+1)%len(keeper)]
		}
		out1[dup[r]] = out1[from]
	}
}

// chargePermute charges th a dense permutation of k words under cat.
func chargePermute(th *pgas.Thread, cat sim.Category, k int64) {
	ns, misses := th.Runtime().Model().DensePermute(k)
	th.Clock.Charge(cat, ns)
	th.Clock.CacheMisses += misses
}

// finishPair permutes both receive buffers back to request order.
func finishPair(c *Comm, th *pgas.Thread, p *Plan, pt *planThread, out1, out2 []int64) {
	k := pt.k
	ns, misses := th.Runtime().Model().DensePermute(int64(k))
	th.Clock.Charge(sim.CatIrregular, 2*ns)
	th.Clock.CacheMisses += 2 * misses
	val, val2 := pt.val[:k], pt.val2[:k]
	for pp, j := range pt.pos[:k] {
		out1[j] = val[pp]
		out2[j] = val2[pp]
	}
}
