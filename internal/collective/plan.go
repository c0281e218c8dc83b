package collective

import (
	"fmt"
	"math/bits"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// Plan captures the grouped request layout of one collective call — owner
// keys resolved, indices count-sorted by owner, the inverse permutation,
// and the published SMatrix/PMatrix columns — separated from the serve
// phase that consumes it. Building a Plan (PlanRequests) performs and
// charges phase 1 of Algorithm 2; executing it (GetD) performs phase 2. A
// Plan built once may be executed many times: the pointer-jumping kernels
// issue the same request vector every iteration, and reuse skips the
// grouping sort and the all-to-all matrix publish — the setup cost that
// dominates at high thread counts (§VI) — while producing bit-identical
// results against the array's current contents.
//
// A Plan is tied to one Comm, one request vector per thread, and one array
// length, but not to one array: every array of one length has the same
// blocks, so executing a plan against each of several such arrays gathers
// them all at the same indices for one phase-1 cost, and executing it
// against an array of another length panics. Like the collectives themselves, PlanRequests and
// GetD are collective: all threads of the runtime must call them, and they
// contain barriers. A Plan must not be shared between concurrent runtime
// Run regions.
//
// With Offload enabled the build filters out the offloaded index, and GetD
// substitutes the pinned value. A plan combines nothing else — whether a
// request vector repeats itself is something a call site knows
// (GetDCombined) — so only the one-shot collectives combine.
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
	req     []int64 // request indices grouped by owner (read by peers)
	val     []int64 // grouped values (Set*) / receive buffer (GetD)
	pos     []int32 // grouped position -> position in the caller's request list
	offs    []int64 // per-owner segment offsets, len s+1
	dropIdx []int32 // request filter: [0,drops) positions of dropped offload requests; [n-dups,n) positions of combined duplicates
	keeper  []int32 // request filter: [n-dups,n) the keeper's position, per combined duplicate
	opts    Options // options captured at build time
	arrLen  int64   // length of the array the plan was built against (-1 = unbuilt)
	n       int     // original request count
	k       int     // grouped request count (post-filter)
	drops   int     // offload requests recorded in dropIdx (GetD builds only)
	dups    int     // combined duplicates recorded in the dropIdx/keeper tails (GetDCombined only)
	execs   int     // executions since the last build
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
		p.pts[i].arrLen = -1
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
// filtered here, as a one-shot GetD's build would.
func (p *Plan) PlanRequests(th *pgas.Thread, d *pgas.SharedArray, indices []int64, opts *Options, cache *IDCache) {
	p.planInto("PlanRequests", th, opGetD, d, indices, nil, orDefaults(opts), cache)
}

// planInto is PlanRequests for the caller named kind, building for op:
// the offload filter applies when op allows it, and op's combine rule says
// what else the filter drops (combineMin judges values, the one-shot
// SetDMin's). The build reads the caller's list twice — keyPass, then the
// grouping's distribution — and copies nothing else out of it.
func (p *Plan) planInto(kind string, th *pgas.Thread, op *serveOp, d *pgas.SharedArray, indices, values []int64, opts *Options, cache *IDCache) {
	c := p.c
	c.checkLive(th)
	st := &c.ts[th.ID]
	pt := &p.pts[th.ID]
	pt.opts = *opts
	pt.arrLen = d.Len()
	pt.n = len(indices)
	pt.execs = 0
	if op.combine == combineMin {
		// What combining keeps depends on the values, so two calls with one
		// index list can keep different requests — even equally many — and
		// an IDCache, valid per index list, would charge the second call a
		// reload of keys it never stored.
		cache = nil
	}
	k := c.keyPass(kind, th, d, pt, st, indices, values, op.allowFiltered && opts.Offload, op.combine)
	pt.k = k
	chargeKeys(&th.Clock, th.Runtime().Model(), k, opts, cache)
	pt.req = sched.Grow64(pt.req, k, &st.growths)
	pt.pos = sched.Grow32(pt.pos, k, &st.growths)
	c.groupInto(th, indices, opts, st, pt)
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
}

// combineSlots is the size of the per-thread direct-mapped table the
// request filter remembers kept requests in: 2 x 8 192 words, 128 KB,
// cache-resident beside the request stream.
const combineSlots = 1 << 13

// combineTable maps a target index (slot index & (combineSlots-1)) to what
// the filter needs to know about the request this call kept for it: the
// smallest value sent (SetDMin) or the request's position (GetDCombined).
// A slot keeps its key beside its value, so a probe touches one cache
// line. A call's keys are base+index+1, base advancing by len(d) a call,
// so no call meets an earlier one's keys until the bases have advanced
// 2^64 in all (int64 arithmetic wraps), and none clears the table.
type combineTable struct {
	slot [combineSlots]struct{ key, val int64 }
	base int64
}

// keyPass is the build's first pass over the caller's request list. For
// every request it checks the index (and the list's length, as MaxRequests
// bounds it), applies the request filter, and writes the owner key to
// st.keys — -1 for a request the owners will not see — counting the
// buckets into pt.offs, which it leaves as the per-owner segment offsets.
// It returns the number of requests kept. The filter drops:
//
//   - offload: requests for the offloaded index. Their positions are kept
//     too (dropIdx) so GetD executions can substitute the pinned value.
//   - combineIndex (GetDCombined): a request for an index an earlier
//     request of this list already asks for. Its position and the earlier
//     request's — its keeper's — go to the tails of dropIdx and keeper,
//     which offload drops cannot reach (drops + dups <= n), and the finish
//     phase copies the keeper's answer.
//   - combineMin (the one-shot SetDMin, whose values arrive in vals): a
//     request (i, v) when an earlier request of this list to the same i
//     with a value <= v was kept. Min is idempotent and commutative, so D
//     after the call is unchanged.
//
// The table is direct-mapped: a colliding index evicts the slot's entry,
// which only forgets — the filter can fail to drop, never drop wrongly.
// The filter is charged by chargeFilter, the keys by chargeKeys.
func (c *Comm) keyPass(kind string, th *pgas.Thread, d *pgas.SharedArray, pt *planThread, st *threadState, indices, vals []int64, offload bool, rule combineRule) int {
	n := len(indices)
	checkLen(kind, d, n)
	st.keys = st.grow32(st.keys, n)
	chargeFilter(&th.Clock, th.Runtime().Model(), int64(n), offload, rule != combineNone)
	offIdx := int64(-1) // no valid index
	if offload {
		offIdx = pt.opts.OffloadIndex
	}
	byMin := rule == combineMin
	var tab *combineTable // non-nil: combine, by position or by value
	var base int64
	if rule != combineNone {
		if st.comb == nil {
			st.comb = new(combineTable)
			st.growths++
		}
		tab = st.comb
		base, tab.base = tab.base, tab.base+d.Len()
	}
	if offload && !byMin || rule == combineIndex {
		pt.dropIdx = sched.Grow32(pt.dropIdx, n, &st.growths)
	}
	if rule == combineIndex {
		pt.keeper = sched.Grow32(pt.keeper, n, &st.growths)
	}
	keys, dropIdx, keeper, counts := st.keys[:n], pt.dropIdx, pt.keeper, pt.offs
	clear(counts)
	arrLen := uint64(d.Len())
	drops, dups := 0, 0
	for j, ix := range indices {
		if uint64(ix) >= arrLen {
			badIndex(kind, d, ix)
		}
		keys[j] = -1
		if ix == offIdx {
			if !byMin {
				dropIdx[drops] = int32(j)
				drops++
			}
			continue
		}
		if tab != nil {
			slot, key := &tab.slot[ix&(combineSlots-1)], base+ix+1
			if byMin {
				v := vals[j]
				if slot.key == key && slot.val <= v {
					continue
				}
				slot.key, slot.val = key, v
			} else {
				if slot.key == key {
					dups++
					dropIdx[n-dups], keeper[n-dups] = int32(j), int32(slot.val)
					continue
				}
				slot.key, slot.val = key, int64(j)
			}
		}
		key := d.OwnerKey(ix)
		keys[j] = key
		counts[key+1]++
	}
	for b := 0; b < c.s; b++ {
		counts[b+1] += counts[b]
	}
	pt.drops, pt.dups = drops, dups
	return int(counts[c.s])
}

// chargeFilter charges the request filter's passes over n offered
// requests: the offload compare, a streaming pass, and the combining
// table's probe, one op per request.
func chargeFilter(clk *sim.Clock, m *sim.Model, n int64, offload, combine bool) {
	if offload {
		clk.Charge(sim.CatWork, m.SeqScan(n))
	}
	if combine {
		clk.Charge(sim.CatWork, m.Ops(n))
	}
}

// chargeKeys charges the owner keys of k kept requests, honoring the id
// optimization and cache: a warm cache's reload, or the arithmetic (and,
// into a cold cache, the store), or one runtime intrinsic per key.
func chargeKeys(clk *sim.Clock, m *sim.Model, k int, opts *Options, cache *IDCache) {
	switch {
	case opts.CachedIDs && cache != nil && cache.valid && cache.k == k:
		clk.Charge(sim.CatWork, m.SeqScan(int64(k)))
	case opts.CachedIDs:
		// Direct, vectorizable arithmetic.
		clk.Charge(sim.CatWork, m.Ops(int64(k)))
		if cache != nil {
			cache.k, cache.valid = k, true
			clk.Charge(sim.CatWork, m.SeqScan(int64(k)))
		}
	default:
		clk.Charge(sim.CatWork, m.Intrinsics(int64(k)))
	}
}

// groupInto is the build's second pass: it distributes the requests
// keyPass kept into pt.req by owner, recording each one's position in the
// caller's list in pt.pos, and charges the grouping sort opts.Sort names.
// keyPass counted the buckets; every kept request goes to the next slot of
// its owner's segment, so each segment keeps the list's order — the
// grouping any stable sort by owner gives, Figure 3's quicksort included.
func (c *Comm) groupInto(th *pgas.Thread, indices []int64, opts *Options, st *threadState, pt *planThread) {
	keys, req, pos := st.keys[:len(indices)], pt.req[:pt.k], pt.pos[:pt.k]
	cursor := st.cursor
	copy(cursor, pt.offs[:c.s])
	for j, key := range keys {
		if key < 0 {
			continue
		}
		p := cursor[key]
		cursor[key]++
		req[p] = indices[j]
		pos[p] = int32(j)
	}
	chargeGroup(&th.Clock, th.Runtime().Model(), int64(pt.k), c.s, opts.Sort)
}

// chargeGroup charges the grouping sort of k requests into owners buckets:
// a counting pass (streaming), a bucketed distribution pass (a dense
// permutation) and ops per request and bucket; or quicksort's ~lg k
// partition passes over k elements, each paying a compare, a branch
// (often mispredicted on random keys) and a conditional swap — the gap
// to count sort the paper quotes as "more than 50 times".
func chargeGroup(clk *sim.Clock, m *sim.Model, k int64, owners int, sort SortKind) {
	if sort == QuickSort {
		lg := int64(bits.Len64(uint64(k)))
		for pass := int64(0); pass < lg; pass++ {
			clk.Charge(sim.CatSort, m.SeqScan(k))
		}
		clk.Charge(sim.CatSort, m.Ops(8*k*lg))
		return
	}
	clk.Charge(sim.CatSort, m.SeqScan(k))
	chargePermute(clk, m, sim.CatSort, k)
	clk.Charge(sim.CatSort, m.Ops(2*k+int64(owners)))
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

// GetD executes the plan as a coordinated concurrent read: out[j] =
// D[indices[j]] for the planned indices, identical in results and
// simulated-time serve charges to Comm.GetD — minus the phase-1 rebuild
// when the plan is reused. len(out) must equal the planned request count,
// and d the planned length: the grouped layout names owners by block, and
// every array of one length has the same blocks.
func (p *Plan) GetD(th *pgas.Thread, d *pgas.SharedArray, out []int64) {
	pt := &p.pts[th.ID]
	checkArgs(opGetD, pt.n, nil, out)
	if pt.arrLen < 0 {
		panic("collective: GetD on an unbuilt plan (call PlanRequests first)")
	}
	if d.Len() != pt.arrLen {
		panic(fmt.Sprintf("collective: plan GetD against %s of length %d, planned for length %d",
			d.Name(), d.Len(), pt.arrLen))
	}
	p.c.traced(th, p, opGetD, func() { p.c.exec(th, p, opGetD, d, nil, out) })
}
