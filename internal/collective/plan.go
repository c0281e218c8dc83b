package collective

import (
	"fmt"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/psort"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// Plan captures the grouped request layout of one collective call — owner
// keys resolved, indices count-sorted by owner, the inverse permutation,
// and the published SMatrix/PMatrix columns — separated from the serve
// phase that consumes it. Building a Plan (PlanRequests) performs and
// charges phase 1 of Algorithm 2; executing it (plan.GetD, plan.SetDMin,
// …) performs phase 2. A Plan built once may be executed many times: the
// pointer-jumping kernels issue the same request vector every iteration,
// and reuse skips the grouping sort and the all-to-all matrix publish —
// the setup cost that dominates at high thread counts (§VI) — while
// producing bit-identical results. Values passed to Set*-style executions
// are re-aligned on every call, so reuse only requires the *indices* to be
// unchanged.
//
// A Plan is tied to one Comm, one request vector per thread, and one array
// distribution (length); executing it against an array of a different
// length panics. Like the collectives themselves, PlanRequests and every
// execution method are collective: all threads of the runtime must call
// them, and they contain barriers. A Plan must not be shared between
// concurrent runtime Run regions.
//
// When the plan is built with Offload enabled, the offloaded index is
// filtered out at build time and only GetD (substitute the pinned value)
// and SetDMin (drop the no-op write) may execute it; other ops panic,
// since their semantics cannot honor a filtered request list. A planned
// SetDMin always delivers every remaining request: duplicate combining
// needs the values, which change per execution while the plan's indices
// are fixed at build, so only the one-shot SetDMin combines. A planned GetD
// delivers every remaining request too: whether a request vector repeats
// itself is something a call site knows (GetDCombined), not the plan.
type Plan struct {
	c    *Comm
	pts  []planThread
	smat []int64 // smat[server*s+requester] = element count
	pmat []int64 // pmat[server*s+requester] = segment offset in requester's req
	wid  uint32  // symmetric transport window id; 0 on a shared fabric
}

// planThread is one thread's slice of a Plan: the grouped request layout
// plus the per-execution value buffers peers read and write during serve.
// Buffers grow through the shared arena utility with the owning thread's
// growth counter, so plan reuse participates in the same steady-state
// zero-allocation accounting as the Comm scratch.
type planThread struct {
	req      []int64 // request indices grouped by owner (read by peers)
	val      []int64 // grouped values (Set*) / receive buffer (GetD, pair 1st)
	val2     []int64 // second receive buffer (GetDPair)
	pos      []int32 // grouped position -> position in the caller's request list
	offs     []int64 // per-owner segment offsets, len s+1
	outIdx   []int32 // request filter: [0,k) kept position -> original position; [n-dups,n) the keeper's original position, per combined duplicate
	dropIdx  []int32 // request filter: [0,drops) original positions of dropped offload requests; [n-dups,n) original positions of combined duplicates
	filt     []int64 // filtered request list (backing for the grouped sort input)
	opts     Options // options captured at build time
	arrLen   int64   // length of the array the plan was built against (0 = unbuilt)
	n        int     // original request count
	k        int     // grouped request count (post-filter)
	drops    int     // offload requests recorded in dropIdx (GetD builds only)
	dups     int     // combined duplicates recorded in the dropIdx/outIdx tails (GetDCombined only)
	filtered bool    // build applied the request filter
	execs    int     // executions since the last build
}

// NewPlan allocates an empty Plan bound to c. Build it with PlanRequests.
// Plan allocation is host-side and SPMD-symmetric, so on a wire fabric
// every process draws the same window id for the same plan and the
// publish matrices are addressable across processes without negotiation.
func (c *Comm) NewPlan() *Plan {
	p := &Plan{
		c:    c,
		pts:  make([]planThread, c.s),
		smat: make([]int64, c.s*c.s),
		pmat: make([]int64, c.s*c.s),
	}
	for i := range p.pts {
		p.pts[i].offs = make([]int64, c.s+1)
	}
	if c.wire {
		p.wid = c.rt.NewWinID()
		c.tr.Expose(pgas.Win{Kind: pgas.WinMatS, ID: p.wid}, p.smat)
		c.tr.Expose(pgas.Win{Kind: pgas.WinMatP, ID: p.wid}, p.pmat)
	}
	return p
}

// PlanRequests builds (or rebuilds) the plan for this thread's request
// vector against d's distribution: phase 1 of Algorithm 2 — owner keys
// (honoring the id optimization and cache), the grouping sort, and the
// SMatrix/PMatrix publish — with exactly the charges the one-shot
// collectives pay for the same phase. It contains no barrier: the first
// execution's pre-serve barrier separates setup from serving, just as in
// a one-shot call. When opts.Offload is set the offloaded index is
// filtered here, restricting the plan to GetD/SetDMin execution.
func (p *Plan) PlanRequests(th *pgas.Thread, d *pgas.SharedArray, indices []int64, opts *Options, cache *IDCache) {
	p.planInto("PlanRequests", th, d, indices, orDefaults(opts), cache, true, false, nil)
}

// planInto is PlanRequests for the caller named kind, shared with the
// one-shot wrappers, which decide filtering by op semantics: only GetD and
// SetDMin honor Offload (allowOffload), only GetDCombined declares its
// requests label-valued (combine), and only the one-shot SetDMin hands over
// its values (minVals). It validates the request list — inside the filter's
// pass when there is one, with a sweep of its own otherwise.
func (p *Plan) planInto(kind string, th *pgas.Thread, d *pgas.SharedArray, indices []int64, opts *Options, cache *IDCache, allowOffload, combine bool, minVals []int64) {
	c := p.c
	c.checkLive(th)
	st := &c.ts[th.ID]
	pt := &p.pts[th.ID]
	pt.opts = *opts
	pt.arrLen = d.Len()
	pt.n = len(indices)
	pt.execs = 0
	pt.drops, pt.dups = 0, 0
	offload := allowOffload && opts.Offload
	pt.filtered = offload || combine || minVals != nil
	work, via := indices, []int32(nil)
	if pt.filtered {
		work = p.planFilter(kind, th, d, pt, st, indices, opts, offload, combine, minVals)
		via = pt.outIdx[:len(work)]
	} else {
		checkRequests(kind, d, indices)
	}
	k := len(work)
	pt.k = k

	c.ownerKeys(th, d, work, opts, cache, st)
	pt.req = sched.Grow64(pt.req, k, &st.growths)
	pt.pos = sched.Grow32(pt.pos, k, &st.growths)
	c.groupInto(th, work, via, opts, st, pt.req[:k], pt.pos[:k], pt.offs)
	// The value buffer is sized with the plan so peers can deliver into it
	// right after the first barrier; its contents are per-execution.
	pt.val = sched.Grow64(pt.val, k, &st.growths)
	if c.wire {
		// (Re-)expose this thread's grouped buffers: Grow64 may have
		// reallocated them, and peers address them by window name during
		// the serve phase.
		c.tr.Expose(pgas.Win{Kind: pgas.WinPlanReq, ID: p.wid, Sub: int32(th.ID)}, pt.req[:k])
		c.tr.Expose(pgas.Win{Kind: pgas.WinPlanVal, ID: p.wid, Sub: int32(th.ID)}, pt.val[:k])
	}
	c.publishInto(th, p, pt.offs)
	if c.tracer != nil {
		c.tracer.PlanBuild(th.ID, int64(k))
	}
}

// combineSlots is the size of the per-thread direct-mapped table the
// request filter remembers kept requests in: 2 x 8 192 words, 128 KB,
// cache-resident beside the request stream.
const combineSlots = 1 << 13

// combineTable maps a target index (slot index & (combineSlots-1)) to what
// the filter needs to know about the request this call kept for it: the
// smallest value sent (SetDMin) or the request's position (GetDCombined).
// key holds index+1, so the zero value is an empty table.
type combineTable struct {
	key, val [combineSlots]int64
}

// planFilter is the one pass over a caller's request list before the
// grouping sort. It validates the list (length and every index, as
// checkRequests does) and drops requests the owners need not see,
// recording the surviving positions (outIdx, which the grouping sort folds
// into pos):
//
//   - offload: requests for the offloaded index. Their positions are kept
//     too (dropIdx) so GetD executions can substitute the pinned value.
//   - combine (GetDCombined): a request for an index an earlier request of
//     this list already asks for. Its position and the earlier request's —
//     its keeper's — go to the tails of dropIdx and outIdx, which kept and
//     dropped requests cannot reach (k + drops + dups = n), and the finish
//     phase copies the keeper's answer.
//   - minVals non-nil (the one-shot SetDMin): a request (i, v) when an
//     earlier request of this list to the same i with a value <= v was
//     kept. Min is idempotent and commutative, so D after the call is
//     unchanged.
//
// The table is direct-mapped: a colliding index evicts the slot's entry,
// which only forgets — the filter can fail to drop, never drop wrongly.
// The offload compare is a charged streaming pass, the table probe one
// charged op per offered request.
func (p *Plan) planFilter(kind string, th *pgas.Thread, d *pgas.SharedArray, pt *planThread, st *threadState, indices []int64, opts *Options, offload, combine bool, minVals []int64) []int64 {
	n := len(indices)
	checkLen(kind, d, n)
	pt.filt = sched.Grow64(pt.filt, n, &st.growths)
	pt.outIdx = sched.Grow32(pt.outIdx, n, &st.growths)
	offIdx := int64(-1) // no valid index
	if offload {
		offIdx = opts.OffloadIndex
		th.ChargeSeq(sim.CatWork, int64(n))
	}
	var tab *combineTable // non-nil: combine, by position or by value
	if combine || minVals != nil {
		if st.comb == nil {
			st.comb = new(combineTable)
			st.growths++
		}
		tab = st.comb
		clear(tab.key[:])
		th.ChargeOps(sim.CatWork, int64(n))
	}
	if minVals == nil {
		pt.dropIdx = sched.Grow32(pt.dropIdx, n, &st.growths)
	}
	filt, outIdx, dropIdx := pt.filt[:n], pt.outIdx[:n], pt.dropIdx
	arrLen := uint64(d.Len())
	w, drops, dups := 0, 0, 0
	for j, ix := range indices {
		if uint64(ix) >= arrLen {
			badIndex(kind, d, ix)
		}
		if ix == offIdx {
			if minVals == nil {
				dropIdx[drops] = int32(j)
				drops++
			}
			continue
		}
		if tab != nil {
			h := ix & (combineSlots - 1)
			if minVals != nil {
				v := minVals[j]
				if tab.key[h] == ix+1 && tab.val[h] <= v {
					continue
				}
				tab.key[h], tab.val[h] = ix+1, v
			} else {
				if tab.key[h] == ix+1 {
					dups++
					dropIdx[n-dups], outIdx[n-dups] = int32(j), int32(tab.val[h])
					continue
				}
				tab.key[h], tab.val[h] = ix+1, int64(j)
			}
		}
		filt[w] = ix
		outIdx[w] = int32(j)
		w++
	}
	pt.drops, pt.dups = drops, dups
	return filt[:w]
}

// groupInto sorts indices by owner (st.keys) into req, filling the
// inverse permutation pos and the per-owner offsets offs, and charging
// the grouping sort. via, when the request filter ran, holds where each
// index stood in the caller's list, and pos records that instead of the
// position in indices. req/pos must have length len(indices); offs length
// s+1. Scratch (packed keys, bucket cursors) comes from st.
func (c *Comm) groupInto(th *pgas.Thread, indices []int64, via []int32, opts *Options, st *threadState, req []int64, pos []int32, offs []int64) {
	k := len(indices)
	switch opts.Sort {
	case CountSort:
		psort.BucketByKeyVia(indices, st.keys[:k], c.s, req, pos, offs, st.cursor, via)
		// Counting pass (streaming) plus a bucketed distribution pass
		// (dense permutation into the grouped layout).
		th.ChargeSeq(sim.CatSort, int64(k))
		chargePermute(th, sim.CatSort, int64(k))
		th.ChargeOps(sim.CatSort, 2*int64(k)+int64(c.s))
	case QuickSort:
		// Pack (owner, position) and comparison-sort: the slow path of
		// Figure 3. Positions keep the sort stable and recover the
		// permutation.
		st.packed = st.grow(st.packed, k)
		packed := st.packed[:k]
		for j := range indices {
			packed[j] = int64(st.keys[j])<<40 | int64(j)
		}
		psort.Quicksort(packed)
		for i := range offs {
			offs[i] = 0
		}
		for p, pk := range packed {
			j := int32(pk & (1<<40 - 1))
			pos[p] = j
			if via != nil {
				pos[p] = via[j]
			}
			req[p] = indices[j]
			offs[pk>>40+1]++
		}
		for b := 0; b < c.s; b++ {
			offs[b+1] += offs[b]
		}
		// Quicksort's partition passes stream each segment sequentially:
		// ~lg k passes over k elements, each element paying a compare,
		// a branch (frequently mispredicted on random keys), and a
		// conditional swap — the constant-factor gap to count sort the
		// paper quotes as "more than 50 times".
		lg := int64(1)
		for kk := k; kk > 1; kk >>= 1 {
			lg++
		}
		for pass := int64(0); pass < lg; pass++ {
			th.ChargeSeq(sim.CatSort, int64(k))
		}
		th.ChargeOps(sim.CatSort, 8*int64(k)*lg)
	default:
		panic(fmt.Sprintf("collective: unknown sort kind %d", opts.Sort))
	}
}

// publishInto writes this thread's per-peer counts and offsets into the
// plan's matrices — the all-to-all setup of Algorithm 2, step 3. On a wire
// fabric each cell destined to a remote server row is additionally pushed
// to that server's process (the physical realization of the small-message
// all-to-all the charges already model); the puts coalesce into the
// transport's per-destination buffers and are ordered before the
// execution's first barrier rendezvous, so every server reads its complete
// row. The hierarchical-A2A charge branch only changes the modeled cost —
// the data still moves per cell on the reference wire.
func (c *Comm) publishInto(th *pgas.Thread, p *Plan, offs []int64) {
	i := th.ID
	smat, pmat := p.smat, p.pmat
	hier := th.Runtime().Model().Config().HierarchicalA2A
	tpn := th.Runtime().ThreadsPerNode()
	for j := 0; j < c.s; j++ {
		smat[j*c.s+i] = offs[j+1] - offs[j]
		pmat[j*c.s+i] = offs[j]
		if th.SameNode(j) {
			th.ChargeOps(sim.CatSetup, 2)
			continue
		}
		if c.wire {
			cell := int64(j*c.s + i)
			buf := [1]int64{smat[cell]}
			if err := c.tr.Put(th, j/tpn, pgas.Win{Kind: pgas.WinMatS, ID: p.wid}, cell, buf[:]); err != nil {
				panic(err)
			}
			buf[0] = pmat[cell]
			if err := c.tr.Put(th, j/tpn, pgas.Win{Kind: pgas.WinMatP, ID: p.wid}, cell, buf[:]); err != nil {
				panic(err)
			}
		}
		if hier {
			// Node-level aggregation: threads stage into node-local
			// buffers; only node leaders exchange combined matrices.
			th.ChargeOps(sim.CatSetup, 2)
			continue
		}
		th.ChargeSmallRemoteWrite(sim.CatSetup)
		th.ChargeSmallRemoteWrite(sim.CatSetup)
	}
	if hier && th.Local == 0 {
		// Leader exchanges one combined matrix block per remote node:
		// counts and offsets for t local threads x t remote threads.
		p := th.Runtime().Nodes()
		blockBytes := int64(2 * 8 * tpn * tpn)
		for node := 0; node < p-1; node++ {
			th.ChargeMessage(sim.CatSetup, blockBytes)
		}
	}
}

// checkExec validates one execution of op against d on this thread.
func (p *Plan) checkExec(op *serveOp, pt *planThread, d *pgas.SharedArray) {
	if pt.arrLen == 0 {
		panic(fmt.Sprintf("collective: %s on an unbuilt plan (call PlanRequests first)", op.kind))
	}
	if d.Len() != pt.arrLen {
		panic(fmt.Sprintf("collective: plan %s against %s of length %d, planned for length %d",
			op.kind, d.Name(), d.Len(), pt.arrLen))
	}
	if pt.filtered && !op.allowFiltered {
		panic(fmt.Sprintf("collective: plan %s on a plan built with offload filtering (only GetD and SetDMin honor the filter)", op.kind))
	}
}

// GetD executes the plan as a coordinated concurrent read: out[j] =
// D[indices[j]] for the planned indices, identical in results and
// simulated-time serve charges to Comm.GetD — minus the phase-1 rebuild
// when the plan is reused. len(out) must equal the planned request count.
func (p *Plan) GetD(th *pgas.Thread, d *pgas.SharedArray, out []int64) {
	pt := &p.pts[th.ID]
	if len(out) != pt.n {
		panic("collective: GetD output length mismatch")
	}
	p.checkExec(opGetD, pt, d)
	p.c.traced("GetD", th, p, func() { p.c.exec(th, p, opGetD, d, nil, nil, out, nil) })
}

// SetD executes the plan as an arbitrary concurrent write: D[indices[j]]
// = values[j]. values are re-aligned to the grouped layout on every call,
// so only the indices need be unchanged for reuse.
func (p *Plan) SetD(th *pgas.Thread, d *pgas.SharedArray, values []int64) {
	p.setExec(th, opSetD, d, values)
}

// SetDMin executes the plan as a priority (minimum-wins) concurrent
// write.
func (p *Plan) SetDMin(th *pgas.Thread, d *pgas.SharedArray, values []int64) {
	p.setExec(th, opSetDMin, d, values)
}

// SetDAdd executes the plan as an additive concurrent write:
// D[indices[j]] += values[j], every request contributing.
func (p *Plan) SetDAdd(th *pgas.Thread, d *pgas.SharedArray, values []int64) {
	p.setExec(th, opSetDAdd, d, values)
}

func (p *Plan) setExec(th *pgas.Thread, op *serveOp, d *pgas.SharedArray, values []int64) {
	pt := &p.pts[th.ID]
	if len(values) != pt.n {
		panic("collective: Set* value length mismatch")
	}
	p.checkExec(op, pt, d)
	p.c.traced(op.kind, th, p, func() { p.c.exec(th, p, op, d, nil, values, nil, nil) })
}

// GetDPair executes the plan as a fused gather from two equally
// distributed arrays at the planned indices: out1[j] = d1[indices[j]],
// out2[j] = d2[indices[j]] — one grouping and one setup serving both.
func (p *Plan) GetDPair(th *pgas.Thread, d1, d2 *pgas.SharedArray, out1, out2 []int64) {
	pt := &p.pts[th.ID]
	if len(out1) != pt.n || len(out2) != pt.n {
		panic("collective: GetDPair output length mismatch")
	}
	if d1.Len() != d2.Len() {
		panic("collective: GetDPair arrays must share a distribution")
	}
	p.checkExec(opGetDPair, pt, d1)
	p.c.traced("GetDPair", th, p, func() { p.c.exec(th, p, opGetDPair, d1, d2, nil, out1, out2) })
}

// Exchange executes the plan as the personalized all-to-all: every
// thread's planned items are routed to their owners under d's
// distribution, and the thread receives the concatenation of everything
// routed to it. The returned slice is valid until the thread's next
// collective call on this Comm.
func (p *Plan) Exchange(th *pgas.Thread, d *pgas.SharedArray) []int64 {
	pt := &p.pts[th.ID]
	p.checkExec(opExchange, pt, d)
	c := p.c
	c.traced("Exchange", th, p, func() { c.exec(th, p, opExchange, d, nil, nil, nil, nil) })
	st := &c.ts[th.ID]
	return st.inVal[:st.routeTotal]
}

// ExchangePairs executes the plan as Exchange carrying a value alongside
// every routed item; values are re-aligned on each call. The returned
// slices are valid until the thread's next collective call on this Comm.
func (p *Plan) ExchangePairs(th *pgas.Thread, d *pgas.SharedArray, values []int64) (recvItems, recvValues []int64) {
	pt := &p.pts[th.ID]
	if len(values) != pt.n {
		panic("collective: ExchangePairs value length mismatch")
	}
	p.checkExec(opExchangePairs, pt, d)
	c := p.c
	c.traced("ExchangePairs", th, p, func() { c.exec(th, p, opExchangePairs, d, nil, values, nil, nil) })
	st := &c.ts[th.ID]
	return st.local[:st.routeTotal], st.inVal[:st.routeTotal]
}
