package collective

import (
	"math/bits"
	"slices"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// LiveEdges owns the live edge list of one kernel run: the endpoint
// vector every graft round gathers labels at, and the two optimizations
// the paper applies to it (§V) — compact, which drops edges already inside
// a component, and id, which keeps the grouping of a list that did not
// change. A kernel allocates one per run, host-side (on a wire fabric the
// plan's window id must be drawn SPMD-symmetrically), and every thread
// takes its share with List.
type LiveEdges struct {
	c       *Comm
	plan    *Plan // non-nil: the list never changes and gathers through this plan
	shrinks bool
	stars   *pgas.SharedArray // non-nil: every Gather after the first sees stars in it (NewLiveEdges)
	pos     Layout            // the gathered array's layout; nil is the identity
}

// EdgeList is one thread's share of a LiveEdges. The kernel reads the
// slices after Gather, Hooks and Compact, which re-slice them; it writes
// none. Indices are int32 on the host — vertex ids and edge ids are below
// 2^31 (graph.Validate) — while labels stay int64 words.
type EdgeList struct {
	// Ends holds the live edges as (u, v) endpoint pairs, as positions of
	// the gathered array: the gather's request vector.
	Ends []int32
	// Labels is what the last Gather read at Ends, pair for pair.
	Labels []int64
	// IDs are the live edges' ids, one per pair; nil unless List was asked
	// for them.
	IDs []int32
	// SlabIdx and SlabVal are a stars list's hook slab, max(span, 2·block)
	// and max(span, block) words (block: the ThreadCover block of d):
	// Hooks builds the hook list in their first span words, and between
	// its SetDMin and the next Hooks they are PointerJump's scratch.
	SlabIdx []int32
	SlabVal []int64
	// hookIdx and hookVal are the hook list, views of the slab, issued by
	// SetDMin before the next Gather, which may borrow them.
	hookIdx []int32
	hookVal []int64

	live    *LiveEdges
	planned bool

	// A stars list's count: seen marks its distinct labels, a bit per
	// element of d; base[w] ranks word w's first for a roots gather.
	seen     []uint64
	base     []int32
	distinct int  // bits set in seen
	viaRoots bool // the pass's count prices the roots path below the endpoints
	// What the last Gather read with, which the pass prices its count by:
	// the options and the length of this thread's serve block of d.
	opts *Options
	nb   int64
	// passed: Hooks compacted the list since the last Gather; Compact owes
	// the charges of the words cleared, streamed over and counted.
	passed                     bool
	cleared, streamed, counted int64
}

// NewLiveEdges returns the list for one kernel run. shrinks lets Compact
// drop settled pairs; regroup keeps a list that never shrinks on the
// one-shot gather all the same, a grouping sort every round — classic SV
// as the paper measured it (Figure 3). A list with neither gathers through
// one Plan, built when it first gathers and re-executed afterwards.
// stars, when non-nil, is the array the list gathers from, asserted for a
// list that shrinks to be collapsed to rooted stars at each Gather after
// the first, every label the list last gathered still in its endpoint's
// tree (labels only merge); its List carries the hook slab. pos is the
// layout of the arrays the list gathers from (nil: the identity).
func (c *Comm) NewLiveEdges(shrinks, regroup bool, stars *pgas.SharedArray, pos Layout) *LiveEdges {
	shrinks = shrinks || c.fault == FaultCompactStatic
	l := &LiveEdges{c: c, shrinks: shrinks, stars: stars, pos: pos}
	if !shrinks && !regroup {
		l.plan = c.NewPlan()
	}
	return l
}

// List builds thread th's share of the list: its span [lo, hi) of the
// edges (u[e], v[e]), written as pairs to Ends, two indices an edge — with
// the edges' ids riding along when the kernel needs to name the edge behind
// a pair. The endpoint vector is written once per run and charged here,
// and so is a stars list's hook slab.
// Under a layout the vertices stay behind as Labels — the identity round's
// labels, the layout's inverse of Ends — and Ends holds their positions,
// one charged op each.
func (l *LiveEdges) List(th *pgas.Thread, u, v []int32, ids bool) *EdgeList {
	lo, hi := th.Span(int64(len(u)))
	el := &EdgeList{live: l, Ends: make([]int32, 2*(hi-lo)), Labels: make([]int64, 2*(hi-lo))}
	for j, e := 0, lo; e < hi; j, e = j+2, e+1 {
		el.Ends[j], el.Ends[j+1] = u[e], v[e]
	}
	if l.pos != nil {
		for j, x := range el.Ends {
			el.Labels[j] = int64(x)
		}
		l.pos(el.Ends)
		th.ChargeOps(sim.CatWork, int64(len(el.Ends)))
	}
	if ids {
		el.IDs = make([]int32, hi-lo)
		for j := range el.IDs {
			el.IDs[j] = int32(lo) + int32(j)
		}
	}
	if l.stars != nil {
		span := hi - lo
		blo, bhi := l.stars.ThreadCover(th.ID)
		el.SlabIdx, el.SlabVal = make([]int32, max(span, 2*(bhi-blo))), make([]int64, max(span, bhi-blo))
		el.hookIdx, el.hookVal = el.SlabIdx[:0:span], el.SlabVal[:0:span]
	}
	th.ChargeSeq(sim.CatWork, int64(len(el.Ends)))
	return el
}

// Gather reads Labels[j] = d[Ends[j]], the cheapest way the list allows.
// identity asserts d still holds its identity fill: every endpoint is its
// own label, so the answer is a local copy, charged as one (under a
// layout, the labels List left behind), and no collective runs. A list
// that never changes builds its plan on the first real gather and
// re-executes it afterwards, paying the grouping sort and matrix publish
// once per run. A list that shrinks (or regroups) calls the one-shot
// GetD; it passes no IDCache, because the cache would be stale after
// every compaction and, as the model charges it, storing and reloading
// owner ids costs more than recomputing them. A shrinking stars list's
// thread whose last pass priced the roots path below the endpoint gather
// gathers at the roots instead (gatherRoots). All threads must call it.
func (el *EdgeList) Gather(th *pgas.Thread, d *pgas.SharedArray, opts *Options, identity bool) {
	l := el.live
	el.Labels, el.passed = el.Labels[:len(el.Ends)], false
	if l.shrinks && l.stars != nil {
		if el.seen == nil {
			words := (d.Len() + 63) / 64
			el.seen, el.base = make([]uint64, words), make([]int32, words)
		}
		lo, hi := d.ThreadCover(th.ID)
		el.opts, el.nb = opts, hi-lo
	}
	switch {
	case identity:
		if l.pos == nil {
			for j, x := range el.Ends {
				el.Labels[j] = int64(x)
			}
			th.ChargeSeq(sim.CatCopy, int64(len(el.Ends)))
		}
	case el.viaRoots:
		el.gatherRoots(th, d, opts)
	case l.plan == nil:
		once(l.c, th, opGetD, d, el.Ends, nil, el.Labels, opts, nil)
	default:
		if !el.planned {
			planInto(l.plan, "PlanRequests", th, opGetD, d, el.Ends, nil, orDefaults(opts), nil)
			el.planned = true
		}
		l.plan.GetD(th, d, el.Labels)
	}
}

// gatherRoots gathers d at the marked labels' positions, listed ascending
// off the bitmap into the hook buffers, and relabels each pair by its
// label's exact rank (base plus a popcount) — a gather into k words: under
// the stars assertion D[Ends[j]] = D[pos(Labels[j])]. When every answer
// names one root, every kept pair lies inside one tree, and the list is
// emptied instead. The pass caps k at the buffers' room, so it allocates
// nothing.
func (el *EdgeList) gatherRoots(th *pgas.Thread, d *pgas.SharedArray, opts *Options) {
	c := el.live.c
	el.viaRoots = false
	roots := el.hookIdx[:0]
	for w, x := range el.seen {
		el.base[w] = int32(len(roots))
		for ; x != 0; x &= x - 1 {
			roots = append(roots, int32(w)<<6|int32(bits.TrailingZeros64(x)))
		}
	}
	k := len(roots)
	th.ChargeSeq(sim.CatWork, int64(len(el.seen)))
	th.ChargeOps(sim.CatWork, int64(k))
	if pos := el.live.pos; pos != nil {
		pos(roots)
		th.ChargeOps(sim.CatWork, int64(k))
	}
	vals := el.hookVal[:k]
	once(c, th, opGetD, d, roots, nil, vals, opts, nil)
	th.ChargeSeq(sim.CatWork, int64(k))
	if !slices.ContainsFunc(vals, func(v int64) bool { return v != vals[0] }) { // one root
		el.Ends, el.Labels, el.IDs = el.Ends[:0], el.Labels[:0], el.IDs[:0]
		return
	}
	if c.fault == FaultWrongRootRank { // read the next root's answer
		first := vals[0]
		copy(vals, vals[1:])
		vals[k-1] = first
	}
	for j, lab := range el.Labels {
		w := lab >> 6
		el.Labels[j] = vals[int(el.base[w])+bits.OnesCount64(el.seen[w]&(1<<(lab&63)-1))]
	}
	chargeRelabel(&th.Clock, th.Runtime().Model(), int64(len(el.Labels)), int64(k))
}

// chargeRelabel charges the relabel of w labels by rank into the k answers
// a roots gather's finish permute has just written: the stream over the
// labels and w lookups into a warm table, which pay no compulsory miss
// and miss only at the steady-state rate of a k-word block.
func chargeRelabel(clk *sim.Clock, m *sim.Model, w, k int64) {
	ns, misses := m.IrregularAccessDistinct(w, 0, k)
	clk.Charge(sim.CatWork, m.SeqScan(w)+ns)
	clk.CacheMisses += misses
}

// rootsLimit is k*: the largest distinct-label count, at most the hook
// buffers' room, at which a roots gather for w kept labels is priced below
// the endpoint gather of the w, or -1 when none is. The roots path's price
// only rises with k, so k* is a binary search.
func (el *EdgeList) rootsLimit(th *pgas.Thread, w int) int {
	rt := th.Runtime()
	m, s, tpn := rt.Model(), rt.NumThreads(), rt.ThreadsPerNode()
	budget := gatherPrice(m, int64(w), el.nb, s, tpn, el.opts)
	cheaper := func(k int) bool { return el.rootsPrice(m, int64(w), int64(k), s, tpn) < budget }
	if !cheaper(0) {
		return -1
	}
	lo, hi := 0, min(w, cap(el.hookIdx))
	for lo < hi {
		if mid := (lo + hi + 1) / 2; cheaper(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// rootsPrice is what gatherRoots charges for w kept labels naming k roots,
// less the per-call terms gatherPrice leaves out: the bitmap scan, one op a
// root to list it and one to lay it out, a gather of k, the one-root
// check's stream over the answers and the relabel. It prices the relabel
// even where the one-root check will skip it.
func (el *EdgeList) rootsPrice(m *sim.Model, w, k int64, s, tpn int) float64 {
	opsPerRoot := int64(1)
	if el.live.pos != nil {
		opsPerRoot = 2
	}
	var clk sim.Clock
	chargeRelabel(&clk, m, w, k)
	return m.SeqScan(int64(len(el.seen))) + m.Ops(opsPerRoot*k) +
		gatherPrice(m, k, el.nb, s, tpn, el.opts) + m.SeqScan(k) + clk.NS
}

// gatherPrice is what the engine charges a one-shot GetD of k requests
// (Comm.once): its phase functions run on a scratch clock with predicted
// counts, less what every call pays whatever its size — the barriers, the
// matrix publish, the count sort's op per owner, and each segment's memory
// or message latency and overhead. It predicts that a share tpn/s of the
// words go to owners on this node, and prices a word by what it adds to a
// segment: its bytes both ways and its translation. The owners serve k
// requests, min(k, nb) of them first touches of a block of nb — this
// thread's own k, since the layouts the stars kernels keep spread a list's
// requests over every owner.
func gatherPrice(m *sim.Model, k, nb int64, s, tpn int, opts *Options) float64 {
	if k <= 0 {
		return 0
	}
	var clk sim.Clock
	chargeFilter(&clk, m, k, opts.Offload, false)
	chargeKeys(&clk, m, int(k), opts, nil)
	chargeGroup(&clk, m, k, 0, opts.Sort)
	chargePermute(&clk, m, sim.CatIrregular, k)
	word := func(near bool) float64 {
		var seg [2]sim.Clock // segments of one word and of two
		for w := range seg {
			chargePull(&seg[w], m, tpn, int64(w+1), near, opts)
			chargeTransfer(&seg[w], m, tpn, int64(w+1), near, false, opts)
		}
		return seg[1].NS - seg[0].NS
	}
	near := k * int64(tpn) / int64(s)
	sortNS, copyNS, _ := sched.AccessCost(m, k, min(k, nb), nb, opts.VirtualThreads, opts.LocalCpy)
	return clk.NS + float64(near)*word(true) + float64(k-near)*word(false) + sortNS + copyNS
}

// Hooks builds a stars list's hook list D[pos(max)] <- min over the pairs
// the last Gather read different labels for, min packed as min<<32 | id
// on a list with ids (the winning SetDMin write names its edge), in the
// pass that does the next Compact's work. It charges an op per pair and
// one per hook, and reports whether it built a hook.
func (el *EdgeList) Hooks(th *pgas.Thread) bool {
	el.pass(th, true)
	return len(el.hookIdx) > 0
}

// SetDMin issues the hook list the last Hooks built as one SetDMin into
// target: d itself, or an array of d's length the kernel elects in. All
// threads must call it.
func (el *EdgeList) SetDMin(th *pgas.Thread, target *pgas.SharedArray, opts *Options) {
	once(el.live.c, th, opSetDMin, target, el.hookIdx, el.hookVal, nil, opts, nil)
}

// Compact drops, in place and in order, every pair whose endpoints
// gathered equal labels, ids riding along; it is charged for the words it
// streams over. Labels merge monotonically in every kernel that compacts,
// so such an edge is inside one component for good. On a list created not
// to shrink it does nothing and charges nothing. After Hooks the list is
// compacted already, and Compact issues that work's charges where it
// stands in the round. A stars list's pass also counts the kept labels
// into the bitmap, a charged probe each, until the count passes what the
// roots path could be cheaper at for the list as it was (rootsLimit); the
// next Gather asks the roots iff the count is within k* of the list kept.
func (el *EdgeList) Compact(th *pgas.Thread) {
	if !el.live.shrinks {
		return
	}
	if !el.passed {
		el.pass(th, false)
	}
	el.passed = false
	th.ChargeSeq(sim.CatWork, el.cleared)
	th.ChargeSeq(sim.CatWork, el.streamed)
	th.ChargeOps(sim.CatWork, el.counted)
}

// pass is the one loop over the gathered pairs: it compacts and counts a
// list that shrinks and builds the hooks. Compact charges all but hooks.
func (el *EdgeList) pass(th *pgas.Thread, hooks bool) {
	l, ends, labels, ids := el.live, el.Ends, el.Labels, el.IDs
	hookIdx, hookVal := el.hookIdx[:0], el.hookVal[:0]
	if el.cleared = 0; l.shrinks && el.distinct > 0 {
		clear(el.seen)
		el.cleared, el.distinct = int64(len(el.seen)), 0
	}
	limit := -1
	if l.shrinks && el.opts != nil {
		limit = el.rootsLimit(th, len(ends))
	}
	w, counted, distinct, seen := 0, 0, el.distinct, el.seen
	for j := 0; j < len(labels); j += 2 {
		a, b := labels[j], labels[j+1]
		if a == b {
			continue
		}
		if hooks {
			v := min(a, b)
			if ids != nil {
				v = v<<32 | int64(ids[j/2])
			}
			hookIdx, hookVal = append(hookIdx, int32(max(a, b))), append(hookVal, v)
		}
		if l.shrinks {
			ends[w], ends[w+1], labels[w], labels[w+1] = ends[j], ends[j+1], a, b
			if ids != nil {
				ids[w/2] = ids[j/2]
			}
			if distinct <= limit {
				distinct += mark(seen, a) + mark(seen, b)
				counted += 2
			}
		}
		w += 2
	}
	if hooks {
		if l.pos != nil {
			l.pos(hookIdx)
		}
		th.ChargeOps(sim.CatWork, int64(len(labels)/2+len(hookIdx)))
		el.hookIdx, el.hookVal = hookIdx, hookVal
	}
	if !l.shrinks {
		return
	}
	el.passed, el.distinct = true, distinct
	el.streamed, el.counted = int64(len(ends)+len(ids)), int64(counted)
	el.viaRoots = el.distinct <= limit && el.distinct <= el.rootsLimit(th, w)
	el.Ends, el.Labels = ends[:w], labels[:w]
	if ids != nil {
		el.IDs = ids[:w/2]
	}
}

// mark sets label v's bit in the bitmap of distinct labels, without a
// branch, and returns 1 if the bit was clear.
func mark(seen []uint64, v int64) int {
	word := seen[v>>6]
	seen[v>>6] = word | 1<<(v&63)
	return int(^word >> (v & 63) & 1)
}
