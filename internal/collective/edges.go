package collective

import (
	"math/bits"

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
	stars   bool   // every Gather after the first sees stars (NewLiveEdges)
	pos     Layout // the gathered array's layout; nil is the identity
}

// EdgeList is one thread's share of a LiveEdges. The kernel reads the
// slices after Gather and Compact, which re-slice them; it writes none.
type EdgeList struct {
	// Ends holds the live edges as (u, v) endpoint pairs, as positions of
	// the gathered array: the gather's request vector.
	Ends []int64
	// Labels is what the last Gather read at Ends, pair for pair.
	Labels []int64
	// IDs are the live edges' ids, one per pair; nil unless List was asked
	// for them.
	IDs []int64
	// HookIdx and HookVal are a stars list's hook buffers, empty with room
	// for one hook per edge of the thread's span: the kernel builds its
	// hook list in them and issues it before the next Gather, which may
	// borrow them for a roots gather.
	HookIdx, HookVal []int64

	live    *LiveEdges
	planned bool

	// A stars list's count: seen marks its distinct labels, a bit per
	// element of d; base[w] ranks word w's first for a roots gather.
	seen     []uint64
	base     []int32
	distinct int  // bits set in seen
	viaRoots bool // Compact's count prices the roots path below the endpoints
	// What the last Gather read with, which Compact prices its count by:
	// the options and the length of this thread's serve block of d.
	opts *Options
	nb   int64
}

// NewLiveEdges returns the list for one kernel run. shrinks lets Compact
// drop settled pairs; regroup keeps a list that never shrinks on the
// one-shot gather all the same, a grouping sort every round — classic SV
// as the paper measured it (Figure 3). A list with neither gathers through
// one Plan, built when it first gathers and re-executed afterwards.
// stars asserts for a list that shrinks that each Gather after the first
// finds d collapsed to rooted stars, every label the list last gathered
// still in its endpoint's tree (labels only merge); its List carries the
// hook buffers. pos is the layout of the arrays the list gathers from
// (nil: the identity).
func (c *Comm) NewLiveEdges(shrinks, regroup, stars bool, pos Layout) *LiveEdges {
	shrinks = shrinks || c.fault == FaultCompactStatic
	l := &LiveEdges{c: c, shrinks: shrinks, stars: stars, pos: pos}
	if !shrinks && !regroup {
		l.plan = c.NewPlan()
	}
	return l
}

// List builds thread th's share of the list: its span [lo, hi) of the m
// edges, whose (u, v) pairs fill writes to ends, two words an edge — with
// the edges' ids riding along when the kernel needs to name the edge behind
// a pair. The endpoint vector is written once per run and charged here,
// and so are a stars list's hook buffers.
// Under a layout the vertices fill writes stay behind as Labels — the
// identity round's labels, the layout's inverse of Ends — and Ends holds
// their positions, one charged op each.
func (l *LiveEdges) List(th *pgas.Thread, m int64, fill func(lo, hi int64, ends []int64), ids bool) *EdgeList {
	lo, hi := th.Span(m)
	el := &EdgeList{live: l, Ends: make([]int64, 2*(hi-lo)), Labels: make([]int64, 2*(hi-lo))}
	if l.pos == nil {
		fill(lo, hi, el.Ends)
	} else {
		fill(lo, hi, el.Labels)
		l.pos(el.Ends, el.Labels)
		th.ChargeOps(sim.CatWork, int64(len(el.Ends)))
	}
	if ids {
		el.IDs = make([]int64, hi-lo)
		for j := range el.IDs {
			el.IDs[j] = lo + int64(j)
		}
	}
	if l.stars {
		el.HookIdx, el.HookVal = make([]int64, 0, hi-lo), make([]int64, 0, hi-lo)
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
// once per run. A list that shrinks (or regroups) calls
// the one-shot GetD; it passes no IDCache, because the cache would be
// stale after every compaction and, as the model charges it, storing and
// reloading owner ids costs more than recomputing them. A shrinking stars
// list's thread whose Compact priced the roots path below the endpoint
// gather gathers at the roots instead (gatherRoots). All threads must call
// it.
func (el *EdgeList) Gather(th *pgas.Thread, d *pgas.SharedArray, opts *Options, identity bool) {
	l := el.live
	el.Labels = el.Labels[:len(el.Ends)]
	if l.shrinks && l.stars {
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
			copy(el.Labels, el.Ends)
			th.ChargeSeq(sim.CatCopy, int64(len(el.Ends)))
		}
	case el.viaRoots:
		el.gatherRoots(th, d, opts)
	case l.plan == nil:
		l.c.GetD(th, d, el.Ends, el.Labels, opts, nil)
	default:
		if !el.planned {
			l.plan.PlanRequests(th, d, el.Ends, opts, nil)
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
// emptied instead. Compact caps k at the buffers' room, so it allocates
// nothing.
func (el *EdgeList) gatherRoots(th *pgas.Thread, d *pgas.SharedArray, opts *Options) {
	c := el.live.c
	el.viaRoots = false
	roots := el.HookIdx[:0]
	for w, x := range el.seen {
		el.base[w] = int32(len(roots))
		for ; x != 0; x &= x - 1 {
			roots = append(roots, int64(w)<<6|int64(bits.TrailingZeros64(x)))
		}
	}
	k := len(roots)
	th.ChargeSeq(sim.CatWork, int64(len(el.seen)))
	th.ChargeOps(sim.CatWork, int64(k))
	if pos := el.live.pos; pos != nil {
		pos(roots, roots)
		th.ChargeOps(sim.CatWork, int64(k))
	}
	vals := el.HookVal[:k]
	c.GetD(th, d, roots, vals, opts, nil)
	th.ChargeSeq(sim.CatWork, int64(k))
	if oneRoot(vals) {
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

// oneRoot reports whether every answer names the same root.
func oneRoot(vals []int64) bool {
	for _, v := range vals {
		if v != vals[0] {
			return false
		}
	}
	return true
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
	lo, hi := 0, min(w, cap(el.HookIdx))
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

// Compact drops, in place and in order, every pair whose endpoints
// gathered equal labels, ids riding along; it is charged for the words it
// streams over. Labels merge monotonically in every kernel that compacts,
// so such an edge is inside one component for good. On a list created not
// to shrink it does nothing and charges nothing.
// A stars list's pass also keeps the kept labels, counting them into the
// bitmap at a charged probe each until the count passes what the roots
// path could be cheaper at for the list as it was (rootsLimit); the next
// Gather asks the roots iff the count is within k* of the list as kept.
func (el *EdgeList) Compact(th *pgas.Thread) {
	l := el.live
	if !l.shrinks {
		return
	}
	if el.distinct > 0 {
		clear(el.seen)
		th.ChargeSeq(sim.CatWork, int64(len(el.seen)))
		el.distinct = 0
	}
	ends, labels, ids := el.Ends, el.Labels, el.IDs
	w, read, limit := 0, 0, -1
	if l.stars && el.opts != nil {
		limit = el.rootsLimit(th, len(ends))
	}
	for j := 0; j < len(labels); j += 2 {
		if labels[j] != labels[j+1] {
			ends[w], ends[w+1] = ends[j], ends[j+1]
			if ids != nil {
				ids[w/2] = ids[j/2]
			}
			if el.distinct <= limit {
				labels[w], labels[w+1] = labels[j], labels[j+1]
				el.mark(labels[w])
				el.mark(labels[w+1])
				read += 2
			}
			w += 2
		}
	}
	th.ChargeSeq(sim.CatWork, int64(len(ends)+len(ids)))
	th.ChargeOps(sim.CatWork, int64(read))
	el.viaRoots = el.distinct <= limit && el.distinct <= el.rootsLimit(th, w)
	el.Ends = ends[:w]
	if ids != nil {
		el.IDs = ids[:w/2]
	}
}

// mark adds label v to the bitmap of distinct labels.
func (el *EdgeList) mark(v int64) {
	if bit := uint64(1) << (v & 63); el.seen[v>>6]&bit == 0 {
		el.seen[v>>6] |= bit
		el.distinct++
	}
}
