// Package collective implements the paper's Algorithm 2: the GetD, SetD,
// and SetDMin collectives that rewrite a PRAM algorithm's irregular shared
// accesses into bulk-synchronous, coalesced communication.
//
// GetD is a coordinated concurrent read, SetD an arbitrary concurrent
// write, and SetDMin a priority (minimum-wins) concurrent write — the
// primitive that lets the MST kernel drop its fine-grained locks (§IV.A).
//
// Every collective call runs in two phases separated by a barrier:
//
//  1. each thread count-sorts its request indices by owner thread and
//     publishes per-peer counts and offsets into the shared SMatrix and
//     PMatrix (an all-to-all of small messages — the setup cost that
//     dominates at high thread counts, §VI);
//  2. each thread serves every peer: it pulls the peer's request segment
//     (one coalesced message), gathers/scatters against its own block of
//     the shared array with Algorithm 1 cache blocking over t' virtual
//     threads, and for GetD pushes the values back (a second coalesced
//     message). A final local permute restores request order.
//
// Phase 1 is reified as a Plan (plan.go) and phase 2 as a serveOp run by
// the exchange engine (engine.go); the collectives here are one-line calls
// into Comm.once, which builds a scratch plan and executes it once. Kernels
// whose request vector is stable across iterations hold their own Plan and
// re-execute its GetD, skipping phase 1 entirely.
//
// The paper's optimizations — circular, localcpy, id, offload — are
// selectable through Options; compact lives in the algorithms (it changes
// what is requested, not how).
package collective

import (
	"fmt"
	"math"
	"time"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/sim"
)

// Size limits of one collective call. The grouping sort's position
// buffers are int32, which bounds the request list, and so is the owner
// key of every request (SharedArray.OwnerKey, threadState.keys), which
// bounds the thread count. Both limits are enforced explicitly — silently
// truncated positions would permute answers instead of failing.
const (
	// MaxRequests is the largest request list one thread may pass to a
	// single collective call.
	MaxRequests = math.MaxInt32
	// MaxThreads is the largest runtime thread count the int32 owner keys
	// can name.
	MaxThreads = math.MaxInt32
)

// SortKind selects the grouping sort phase 1 is charged as. The paper's
// Figure 3 deliberately uses quicksort ("more than 50 times slower than
// count sort") to show coalescing wins even with a slow sort. Both kinds
// group the requests alike — by owner, stably — so the host runs the count
// sort whatever the kind, and the kind selects the charge (chargeGroup).
type SortKind int

const (
	// CountSort is the linear-time two-pass bucket sort (the default).
	CountSort SortKind = iota
	// QuickSort charges comparison sorting on (owner, position) keys.
	QuickSort
)

// Options selects the paper's PGAS-specific optimizations. The zero value
// is the unoptimized "base" configuration of Figure 5.
type Options struct {
	// VirtualThreads is t', the number of virtual blocks each thread's
	// local array portion is split into during the serve phase (third
	// recursion level of Algorithm 1). <= 1 disables cache blocking.
	VirtualThreads int
	// Circular staggers the peer-service order so each superstep is a
	// perfect matching (thread i starts with peer i), instead of every
	// thread hammering peer 0 first.
	Circular bool
	// LocalCpy uses private pointer arithmetic for accesses to the local
	// portion of shared arrays.
	LocalCpy bool
	// CachedIDs computes owner ids arithmetically (vectorizable) instead
	// of via runtime intrinsics, and reuses them across iterations
	// through the IDCache passed per call.
	CachedIDs bool
	// Offload drops requests for index 0 and substitutes 0 locally: the
	// paper's hotspot fix for D[0], whose value is pinned at 0 for CC.
	// It is the one sound pin — no minimum write can lower D[0] below 0
	// from the identity labeling — so Validate rejects any other
	// OffloadIndex; the field is only still here because benchmark/
	// compiles against it (like IDCache's trailing parameter, it waits
	// for a benchmark-archetype PR).
	Offload      bool
	OffloadIndex int64
	// Sort selects the grouping sort phase 1 is charged as.
	Sort SortKind
}

// Optimized returns the paper's fully optimized configuration with the
// given virtual-thread count (the "id" bar of Figure 5).
func Optimized(virtualThreads int) *Options {
	return &Options{
		VirtualThreads: virtualThreads,
		Circular:       true,
		LocalCpy:       true,
		CachedIDs:      true,
		Offload:        true,
	}
}

// Base returns the unoptimized configuration (Figure 5's "base": two
// recursion levels of Algorithm 1, i.e. coalescing plus per-thread
// blocks, but none of the §V optimizations). VirtualThreads is 1 — the
// canonical spelling of "no cache blocking" that Validate accepts.
func Base() *Options { return &Options{VirtualThreads: 1} }

// Validate reports whether o is a usable configuration. nil is valid (it
// selects Base, the configuration every kernel runs nil options with). VirtualThreads must be >= 1 (legacy zero values are
// still normalized by Sanitize for compatibility, but new configurations
// should spell "no blocking" as 1), Sort must be a known kind, and an
// enabled Offload pins index 0 (the only pair the engine substitutes is
// D[0] = 0; any other index would make GetD lie about a live label).
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.VirtualThreads <= 0 {
		return fmt.Errorf("collective: VirtualThreads must be >= 1, got %d (use 1 to disable cache blocking)", o.VirtualThreads)
	}
	if o.Sort != CountSort && o.Sort != QuickSort {
		return fmt.Errorf("collective: unknown sort kind %d", o.Sort)
	}
	if o.Offload && o.OffloadIndex != 0 {
		return fmt.Errorf("collective: Offload pins D[0] = 0 only, got OffloadIndex %d", o.OffloadIndex)
	}
	return nil
}

// Sanitize maps opts to the private copy a kernel actually runs with: nil
// becomes Base(), the legacy VirtualThreads zero value is normalized
// to 1, and Offload is force-disabled when the kernel cannot honor it
// (allowOffload false). Kernels call this once at their boundary so the
// nil ≡ Base contract holds everywhere.
func Sanitize(opts *Options, allowOffload bool) *Options {
	if opts == nil {
		return Base()
	}
	o := *opts
	if o.VirtualThreads < 1 {
		o.VirtualThreads = 1
	}
	if !allowOffload {
		o.Offload = false
	}
	return &o
}

// ValidateGeometry reports whether a runtime with the given thread count
// can be served by the collectives: owner keys are int32, capping the
// thread count at MaxThreads. The pgasgraph boundary surfaces this as an
// error; NewComm keeps it as a panic backstop for direct internal
// construction.
func ValidateGeometry(threads int) error {
	if threads <= 0 {
		return fmt.Errorf("collective: thread count must be positive, got %d", threads)
	}
	if threads > MaxThreads {
		return fmt.Errorf("collective: %d threads exceed the %d-thread limit of the int32 owner keys", threads, MaxThreads)
	}
	return nil
}

// IDCache is the id optimization's reuse of owner ids across collective
// calls for one thread and one index list: a warm cache charges the keys
// as one streaming reload instead of computing them again. The build
// computes every key anyway, in the pass that checks and filters the list,
// where a key costs the host one multiply — less than reloading it — so a
// cache changes what a call is charged, never which owner serves a
// request. A changed index list needs a fresh cache.
type IDCache struct {
	k     int // kept request count the cache was warmed with
	valid bool
}

// threadState is the per-thread scratch arena of a Comm: the serve-phase
// buffers of the exchange engine plus the grouping sort's key and cursor
// scratch. Every buffer persists across collective calls and grows
// monotonically, so a warm Comm runs the hot path without allocating;
// growths counts the backing-array (re)allocations — including those of
// plan-owned buffers grown on this thread — for the trace layer's
// allocs-per-call column.
//
// A serve reads a peer that shares this process straight out of the
// peer's plan buffers and writes a gather's answers straight into them;
// stage and vals hold only the segments of peers in another OS process, so
// on a shared fabric they stay empty. One vals buffer stages a scatter's
// pulled values and a gather's pushed answers alike: a later serve may
// overwrite a push's words because Transport.Put encodes src before it
// returns (the wire packs them into the connection's buffer, the
// in-process path copies them).
type threadState struct {
	keys       []int32 // owner key per request of the current list, -1 where the filter dropped it
	stage      []int64 // wire staging: remote peers' request segments
	vals       []int64 // wire staging: remote peers' value segments, pulled (Set*) or answers pushed (GetD)
	recv       []int64 // route-op receive: routed items
	recv2      []int64 // route-op receive: routed values (ExchangePairs)
	cursor     []int64 // bucket cursors for the count-sort, len s
	segs       []segment
	served     []int64       // a traced call's elements served per requester (see served)
	comb       *combineTable // request filter memory, allocated by the thread's first combining call (one-shot SetDMin, GetDCombined)
	scr        sched.Scratch
	routeTotal int64 // element count of the last route-op receive
	growths    int64 // scratch backing-array allocations (monotonic)
}

// grow returns buf resized to k elements through the shared arena
// utility, counting a scratch growth on reallocation.
func (st *threadState) grow(buf []int64, k int) []int64 {
	return sched.Grow64(buf, k, &st.growths)
}

// grow32 is grow for int32 buffers.
func (st *threadState) grow32(buf []int32, k int) []int32 {
	return sched.Grow32(buf, k, &st.growths)
}

// segment records where one peer's request slice sits in the peer's plan
// buffers and, for a peer in another process, in the wire staging.
type segment struct {
	peer int32
	off  int64 // offset in the peer's req/val buffers
	pos  int64 // offset in the wire staging (remote peers only)
	k    int64
}

// Call is one thread's report of one collective execution, the one record
// a Tracer receives.
type Call struct {
	Kind    string // the collective; a GetDCombined reports as GetD
	Thread  int
	Delta   sim.Breakdown // simulated time the call charged, by category
	Offered int64         // requests the caller offered
	// Kept (<= Offered) counts the requests that reached the owners: the
	// request filter drops offloaded ones, a one-shot SetDMin's beaten
	// writes and a GetDCombined's repeated indices.
	Kept    int64
	Wall    time.Duration // host wall-clock time on the thread's goroutine
	Growths int64         // scratch backing-array growths: zero once the Comm is warm
	Reused  bool          // the plan was built by an earlier call: phase 1 was skipped
	// Served[r] is the elements this thread served requester r, counted
	// once when armed chaos replayed the serve. It is the Comm's scratch,
	// valid until Collective returns.
	Served []int64
}

// Tracer observes collective execution for profiling (see internal/trace
// for the standard implementation): Collective receives one Call per
// participating thread per execution. It must be safe for concurrent use
// by all runtime threads.
type Tracer interface {
	Collective(Call)
}

// Comm holds the shared state of the collectives for one runtime: the
// per-thread scratch arenas and the scratch plan backing the one-shot
// collectives. Allocate one per runtime and reuse it across calls;
// buffers grow on demand.
type Comm struct {
	rt     *pgas.Runtime
	s      int
	tr     pgas.Transport
	wire   bool // the fabric spans processes: peer plan buffers need transport access
	tpn    int  // threads per node, cached for peer -> node mapping
	node   int  // this process's node id
	ts     []threadState
	splan  *Plan // scratch plan rebuilt by every one-shot collective
	tracer Tracer
	fault  Fault // armed defect for mutation-sensitivity testing (see fault.go)
}

// SetTracer attaches a profiling tracer (nil detaches). Set it before
// running kernels; it must not change while a collective is in flight.
func (c *Comm) SetTracer(t Tracer) { c.tracer = t }

// checkLive panics with a classified ErrMisuse when this Comm's geometry
// is stale: its runtime was retired by an eviction, or th belongs to a
// different (remapped) runtime than the one the Comm — and every Plan
// bound to it — captured. Plans bake the geometry in (per-thread
// grouping, the s×s publish matrices), so after an eviction they must be
// rebuilt on the remapped runtime: block ownership moved, and a stale
// plan would silently serve the old distribution. Live geometries pay two
// pointer compares and keep plan reuse bit-identical.
func (c *Comm) checkLive(th *pgas.Thread) {
	if c.rt.Retired() || th.Runtime() != c.rt {
		panic(pgas.Errorf(pgas.ErrMisuse, th.ID, "collective",
			"geometry changed by eviction: rebuild the Comm and its Plans on the remapped runtime"))
	}
}

// traced wraps one execution of op against plan p with the tracer's
// report. It is on every collective execution path, so it also carries the
// stale-geometry guard.
func (c *Comm) traced(th *pgas.Thread, p *Plan, op *serveOp, body func()) {
	c.checkLive(th)
	if c.tracer == nil {
		body()
		return
	}
	st := &c.ts[th.ID]
	before := th.Clock.ByCategory
	growthsBefore := st.growths
	start := time.Now()
	body()
	wall := time.Since(start)
	pt := &p.pts[th.ID]
	c.tracer.Collective(Call{
		Kind: op.kind, Thread: th.ID, Delta: th.Clock.ByCategory.Sub(&before),
		Offered: int64(pt.n), Kept: int64(pt.k), Wall: wall, Growths: st.growths - growthsBefore,
		Reused: pt.execs > 1, Served: c.served(st, op),
	})
}

// served returns the elements the thread of st served each requester in
// its last serve: per request, the pull and a scatter's value or a
// gather's answer. It reads the thread's own segments, untouched until its
// next serve, not the plan's matrices, which a peer may already be
// publishing its next one-shot call into.
func (c *Comm) served(st *threadState, op *serveOp) []int64 {
	w := int64(1)
	if op.hasValues || op.gathers { // no op does both
		w = 2
	}
	st.served = append(st.served[:0], make([]int64, c.s)...) // zeroed; allocated once, not a scratch growth
	for _, seg := range st.segs {
		st.served[seg.peer] = w * seg.k
	}
	return st.served
}

// NewComm allocates collective state for rt. It panics on a geometry the
// int32 owner keys cannot name; callers that want an error instead
// check ValidateGeometry first (pgasgraph.NewCluster does).
func NewComm(rt *pgas.Runtime) *Comm {
	s := rt.NumThreads()
	if err := ValidateGeometry(s); err != nil {
		panic(err.Error())
	}
	c := &Comm{rt: rt, s: s, tr: rt.Transport(), tpn: rt.ThreadsPerNode(), node: rt.LocalNode()}
	c.wire = !c.tr.Shared()
	c.ts = make([]threadState, s)
	for i := range c.ts {
		c.ts[i].cursor = make([]int64, s)
	}
	c.splan = c.NewPlan()
	return c
}

// peerAt returns the peer served at step r under the selected schedule.
func peerAt(i, r, s int, circular bool) int {
	if circular {
		return (i + r) % s
	}
	return r
}

// chargeTransfer charges a coalesced bulk transfer of k elements between a
// thread and a peer, either way: a stream when the peer is on the thread's
// node (near), else one message from a node of tpn threads, with a return
// wire leg for a pull and the linear-schedule penalty unless Circular.
func chargeTransfer(clk *sim.Clock, m *sim.Model, tpn int, k int64, near, pull bool, opts *Options) {
	if k <= 0 {
		return
	}
	if near {
		clk.Charge(sim.CatComm, m.SeqScan(k))
		return
	}
	bytes := k * sim.ElemBytes
	ns := m.Message(bytes, tpn)
	if pull {
		ns += m.Config().NetLatency
	}
	if !opts.Circular {
		ns *= m.LinearPenalty()
	}
	clk.Charge(sim.CatComm, ns)
	clk.Messages++
	clk.Bytes += bytes
	clk.RemoteOps++
}

// checkLen panics when a request list of n elements is too long to plan.
func checkLen(kind string, d *pgas.SharedArray, n int) {
	if n > MaxRequests {
		panic(fmt.Sprintf("collective: %s request list of %d elements exceeds the %d-element limit in %s",
			kind, n, MaxRequests, d.Name()))
	}
}

// badIndex panics naming the collective, the out-of-bounds index and d.
func badIndex(kind string, d *pgas.SharedArray, ix int64) {
	panic(fmt.Sprintf("collective: %s index %d out of range [0,%d) in %s", kind, ix, d.Len(), d.Name()))
}

// GetD gathers out[j] = D[indices[j]] collectively. All threads of the
// runtime must call it (with possibly different index lists); it contains
// barriers. cache may be nil. Requests must be in-bounds for d and at most
// MaxRequests long (both checked).
func (c *Comm) GetD(th *pgas.Thread, d *pgas.SharedArray, indices, out []int64, opts *Options, cache *IDCache) {
	c.once(th, opGetD, d, indices, nil, out, opts, cache)
}

// GetDCombined is GetD, result for result, for a request vector the caller
// knows to be label-valued: read out of d itself (the labels' labels of
// pointer jumping, the grandparents of a hook round), so that as trees
// flatten thousands of requests name the same few roots. The request
// filter delivers the first request per index and the finish phase copies
// its answer to the rest (see keyPass). The probe is paid on every
// offered request, which is why edge-list gathers — a few percent
// duplicates — stay on GetD, and so does a late one naming few roots,
// which asks for those roots (EdgeList.Gather) rather than grow this
// filter's keeper and dropIdx tails to the list. It traces as GetD.
func (c *Comm) GetDCombined(th *pgas.Thread, d *pgas.SharedArray, indices, out []int64, opts *Options) {
	c.once(th, opGetDCombined, d, indices, nil, out, opts, nil)
}

// SetD scatters D[indices[j]] = values[j] collectively (arbitrary
// concurrent write: when several requests target one location, the owner
// applies them in a deterministic order and the last wins).
func (c *Comm) SetD(th *pgas.Thread, d *pgas.SharedArray, indices, values []int64, opts *Options, cache *IDCache) {
	c.once(th, opSetD, d, indices, values, nil, opts, cache)
}

// SetDMin scatters D[indices[j]] = min(D[indices[j]], values[j])
// collectively (priority concurrent write). It is the lock-free
// replacement for the MST minimum-edge update. With Offload enabled,
// writes against the offloaded location are no-ops for a priority write
// when its value is pinned at the minimum; they are dropped client-side.
// So is a request that cannot win: one whose target this thread already
// sent, in this call, a value at least as small (see keyPass). The
// owners may therefore see fewer requests than were offered; D after the
// call is the same. cache is not consulted: which requests survive depends
// on the values, not on the index list alone.
func (c *Comm) SetDMin(th *pgas.Thread, d *pgas.SharedArray, indices, values []int64, opts *Options, cache *IDCache) {
	c.once(th, opSetDMin, d, indices, values, nil, opts, cache)
}

// Exchange is the personalized all-to-all underlying the paper's
// collectives, exposed directly: every thread contributes items routed to
// d.Owner(item) (items are element indices, e.g. vertex ids), and receives
// the concatenation of everything routed to it. Level-synchronous
// algorithms (BFS frontier exchange) use it to push work to data owners
// with one coalesced message per thread pair.
// It is the engine's route op: grouping and matrix publish as usual, but
// the serve phase delivers the grouped items themselves instead of
// accessing a local block.
//
// All threads must call it (it contains barriers). The returned slice is
// valid until the thread's next collective call on this Comm.
func (c *Comm) Exchange(th *pgas.Thread, d *pgas.SharedArray, items []int64, opts *Options, cache *IDCache) []int64 {
	c.once(th, opExchange, d, items, nil, nil, opts, cache)
	st := &c.ts[th.ID]
	return st.recv[:st.routeTotal]
}

// ExchangePairs is Exchange carrying a value alongside every routed item:
// thread-local (index, value) pairs are delivered to the index's owner,
// which receives both slices aligned. Relaxation-style algorithms (SSSP)
// use it to push tentative distances to vertex owners, which then apply
// them with full knowledge of what changed — something the fire-and-forget
// SetDMin cannot report.
//
// All threads must call it (it contains barriers). The returned slices are
// valid until the thread's next collective call on this Comm.
func (c *Comm) ExchangePairs(th *pgas.Thread, d *pgas.SharedArray, items, values []int64, opts *Options, cache *IDCache) (recvItems, recvValues []int64) {
	c.once(th, opExchangePairs, d, items, values, nil, opts, cache)
	st := &c.ts[th.ID]
	return st.recv[:st.routeTotal], st.recv2[:st.routeTotal]
}

// once is every one-shot collective: check the caller's slices against the
// request list, build the scratch plan for op (which says what the build
// may drop) and execute it once.
func (c *Comm) once(th *pgas.Thread, op *serveOp, d *pgas.SharedArray, indices, values, out []int64, opts *Options, cache *IDCache) {
	checkArgs(op, len(indices), values, out)
	opts = orDefaults(opts)
	c.traced(th, c.splan, op, func() {
		c.splan.planInto(op.kind, th, op, d, indices, values, opts, cache)
		c.exec(th, c.splan, op, d, values, out)
	})
}

// checkArgs panics when op's values or results do not hold one element per
// request of an n-element list.
func checkArgs(op *serveOp, n int, values, out []int64) {
	if op.hasValues && len(values) != n {
		panic("collective: " + op.kind + " value length mismatch")
	}
	if op.gathers && len(out) != n {
		panic("collective: " + op.kind + " output length mismatch")
	}
}

// orDefaults maps a nil options pointer to Base.
func orDefaults(opts *Options) *Options {
	if opts == nil {
		return Base()
	}
	return opts
}
