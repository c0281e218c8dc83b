// Package pgas implements the PGAS (Partitioned Global Address Space)
// runtime the paper's UPC codes execute on.
//
// The runtime presents the UPC surface the paper's Figure 1 and Algorithm 2
// rely on: a fixed set of threads spread over nodes, shared arrays with a
// blocked distribution and an owner thread per element, one-sided Get/Put
// in single-element form and bulk reads (upc_memget), and full barriers
// (upc_barrier).
//
// Threads are real goroutines and data movement is real (algorithms compute
// real, verifiable answers). Execution *time* is simulated: every operation
// charges modeled nanoseconds to the issuing thread's clock (package sim)
// and barriers synchronize clocks to the maximum, so a run's simulated
// makespan reproduces the bulk-synchronous timing structure of the paper's
// cluster. See DESIGN.md §2 for the substitution argument.
package pgas

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/sim"
)

// Runtime is a PGAS machine instance: a set of threads over nodes plus the
// cost model they charge against. Create one with New, then execute SPMD
// regions with Run.
type Runtime struct {
	cfg     machine.Config
	model   *sim.Model
	s       int
	threads []*Thread      // all s thread contexts (metadata for every node)
	locals  []*Thread      // the threads this process actually drives
	tr      Transport      // the fabric; shared (in-process) by default
	node    int            // this process's node id (0 on a shared transport)
	winc    uint32         // symmetric window-id counter (host-side allocation only)
	arrays  []*SharedArray // live wire replicas, refreshed after each region (nil when shared)
	bar     *barrier
	turn    *turn         // the running one-sided region's turn; nil otherwise
	chaos   *chaosState   // fault injector; nil (free) when disarmed
	ckpt    *Checkpointer // superstep checkpoint manager; nil when disarmed
	retired bool          // geometry invalidated by Evict; see Retired
	// draining is set when a wire region failed with an eviction: the
	// transport is still live and a slower survivor may still be inside the
	// region, reading this node's windows. They stay exposed until Evict's
	// membership agreement proves every survivor has left it.
	draining bool
	evicted  []int // cumulative evicted thread ids (original numbering first)
}

// New validates cfg and returns a runtime with cfg.TotalThreads() threads
// on the in-process shared-memory fabric.
func New(cfg machine.Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewOnTransport(cfg, NewInprocTransport(cfg.Nodes))
}

// NewOnTransport returns a runtime whose cross-node data movement rides tr.
// On a shared transport this is identical to New. On a non-shared (wire)
// transport the runtime is one SPMD replica: it holds metadata for all
// cfg.TotalThreads() threads but drives only the cfg.ThreadsPerNode threads
// of tr.Node(), every cross-process access goes through tr, every barrier
// extends into a transport rendezvous, and shared arrays are full-size
// local replicas whose remote blocks are refreshed from their owners after
// each successful Run region. Every process of the cluster must execute the
// same host-side allocation and region sequence (the SPMD discipline the
// kernels already follow), which is what lets window ids and rendezvous
// generations stay symmetric without communication.
func NewOnTransport(cfg machine.Config, tr Transport) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Nodes() != cfg.Nodes {
		return nil, Errorf(ErrMisuse, -1, "NewOnTransport",
			"transport spans %d nodes, machine has %d", tr.Nodes(), cfg.Nodes)
	}
	if tr.Node() < 0 || tr.Node() >= cfg.Nodes {
		return nil, Errorf(ErrMisuse, -1, "NewOnTransport",
			"transport node %d out of range [0,%d)", tr.Node(), cfg.Nodes)
	}
	if !tr.Shared() {
		// A transport that names thread ids (eviction attribution) must
		// agree with the machine geometry on threads-per-node.
		if tg, ok := tr.(interface{ ThreadsPerNode() int }); ok {
			if n := tg.ThreadsPerNode(); n > 0 && n != cfg.ThreadsPerNode {
				return nil, Errorf(ErrMisuse, -1, "NewOnTransport",
					"transport configured for %d threads/node, machine has %d", n, cfg.ThreadsPerNode)
			}
		}
	}
	return newRuntime(cfg, cfg.TotalThreads(), sim.NewModel(cfg), tr, nil), nil
}

// newRuntime builds an s-thread runtime on tr with cfg's threads per node:
// the thread table, the threads this process drives (every one on a shared
// transport, node tr.Node()'s otherwise) and the region barrier over them.
// New, Evict and its wire form all build through it; evicted is what a
// remapped runtime inherits.
func newRuntime(cfg machine.Config, s int, model *sim.Model, tr Transport, evicted []int) *Runtime {
	rt := &Runtime{cfg: cfg, model: model, s: s, tr: tr, node: tr.Node(), evicted: evicted}
	tpn := cfg.ThreadsPerNode
	rt.threads = make([]*Thread, s)
	for i := range rt.threads {
		rt.threads[i] = &Thread{rt: rt, ID: i, Node: i / tpn, Local: i % tpn}
	}
	rt.locals = rt.threads
	if !tr.Shared() {
		rt.locals = rt.threads[rt.node*tpn : (rt.node+1)*tpn]
	}
	rt.bar = newBarrier(rt)
	return rt
}

// Config returns the machine configuration.
func (rt *Runtime) Config() machine.Config { return rt.cfg }

// Model returns the cost model.
func (rt *Runtime) Model() *sim.Model { return rt.model }

// NumThreads returns the total thread count s = p*t.
func (rt *Runtime) NumThreads() int { return rt.s }

// Nodes returns the node count p.
func (rt *Runtime) Nodes() int { return rt.cfg.Nodes }

// ThreadsPerNode returns t.
func (rt *Runtime) ThreadsPerNode() int { return rt.cfg.ThreadsPerNode }

// Transport returns the fabric under this runtime.
func (rt *Runtime) Transport() Transport { return rt.tr }

// LocalNode returns the node id this process drives (0 on a shared
// transport, where the process drives every node).
func (rt *Runtime) LocalNode() int { return rt.node }

// IsLocal reports whether thread id executes in this process. Always true
// on a shared transport. Host-side code that compares per-thread state
// after a region (the verify harness's law checks) must restrict itself to
// local threads on a wire runtime: remote threads' private buffers were
// written in another process.
func (rt *Runtime) IsLocal(id int) bool {
	return rt.tr.Shared() || id/rt.cfg.ThreadsPerNode == rt.node
}

// NewWinID draws the next symmetric window id. Allocation sites (shared
// arrays, collective plans, reducers) are all host-side and execute in the
// same order in every SPMD replica, so the counter names the same object in
// every process without communication. Only meaningful on a wire transport;
// callers skip window registration entirely on a shared fabric.
func (rt *Runtime) NewWinID() uint32 {
	rt.winc++
	return rt.winc
}

// Mark names a point in the runtime's host-side allocation sequence; see
// Release.
type Mark struct {
	arrays int
	win    uint32
}

// Mark returns the current point in the allocation sequence.
func (rt *Runtime) Mark() Mark { return Mark{arrays: len(rt.arrays), win: rt.winc} }

// Release ends the lifetime of everything allocated since m — shared
// arrays, collective plans, reducers: the arrays leave the post-region
// replica sync and every window id drawn since m is dropped from the
// transport in one range. A kernel entry takes a Mark before dispatch and
// releases it once the results are copied out to host slices, so a
// long-lived cluster syncs and exposes only what is still in use. Nothing
// allocated since m may be used afterwards. No-op on a shared fabric,
// where nothing is registered.
//
// Release is host-side and SPMD-symmetric like allocation. It relies on the
// region protocol for safety: after a region's closing rendezvous no peer
// holds an unanswered request or an unflushed write against this node.
// After a failed region that only holds once the failure is settled — see
// draining.
func (rt *Runtime) Release(m Mark) {
	if rt.tr.Shared() {
		return
	}
	for i := m.arrays; i < len(rt.arrays); i++ {
		rt.arrays[i] = nil
	}
	rt.arrays = rt.arrays[:m.arrays]
	if !rt.draining {
		rt.tr.Unexpose(m.win, rt.winc)
	}
}

// syncReplicas refreshes every live shared array's remote blocks from their
// owning processes after a successful region: one rendezvous to quiesce the
// region everywhere, one coalesced Get per (array, remote node), one more
// rendezvous so no process re-enters host code while a peer still serves.
// This is what keeps host-side verification and initialization code —
// which reads and writes arrays via Raw() without charges — working
// unchanged on a wire runtime.
func (rt *Runtime) syncReplicas() error {
	if _, err := rt.tr.Rendezvous(0); err != nil {
		return err
	}
	for _, a := range rt.arrays {
		for nd := 0; nd < rt.cfg.Nodes; nd++ {
			if nd == rt.node {
				continue
			}
			lo, hi := a.nodeRange(nd)
			if lo >= hi {
				continue
			}
			if err := rt.tr.Get(nil, nd, a.win, lo, a.data[lo:hi]); err != nil {
				return err
			}
		}
	}
	if _, err := rt.tr.Rendezvous(0); err != nil {
		return err
	}
	return nil
}

// Retired reports whether this runtime's geometry has been invalidated by
// Evict: its thread set no longer exists, so plans built against it must
// be rebuilt on the remapped runtime and SPMD regions refuse to start.
func (rt *Runtime) Retired() bool { return rt.retired }

// EvictedThreads returns the ids of every thread evicted from this
// runtime's lineage, in eviction order. Ids are numbered in the geometry
// they were evicted from (eviction renumbers survivors densely).
func (rt *Runtime) EvictedThreads() []int {
	return append([]int(nil), rt.evicted...)
}

// Evict permanently removes the given threads and returns the remapped
// runtime the survivors continue on: survivor ids are renumbered densely
// (relative order preserved) and packed onto nodes t at a time, shared
// arrays allocated on the new runtime re-block over the survivor count —
// which is exactly the "remap the dead thread's block ownership onto
// survivors" step, since recovery re-creates state arrays on the new
// geometry and the checkpoint manager restores their contents by name —
// and the cost model is unchanged (the machine still has the same nodes
// and links; it just lost execution contexts). The receiver is retired:
// its Run refuses to start and collectives bound to it refuse to execute
// with a classified ErrMisuse, so a stale Plan can never silently serve
// the old geometry. Chaos and checkpoint state do NOT carry over
// automatically; the recovery supervisor re-arms both explicitly.
func (rt *Runtime) Evict(dead []int) (*Runtime, error) {
	if !rt.tr.Shared() {
		return rt.evictWire(dead)
	}
	gone := make(map[int]bool, len(dead))
	for _, id := range dead {
		if id < 0 || id >= rt.s {
			return nil, Errorf(ErrMisuse, -1, "Evict", "thread %d out of range [0,%d)", id, rt.s)
		}
		if gone[id] {
			return nil, Errorf(ErrMisuse, -1, "Evict", "thread %d evicted twice", id)
		}
		gone[id] = true
	}
	s := rt.s - len(gone)
	if s < 1 {
		return nil, Errorf(ErrMisuse, -1, "Evict", "no survivors (evicting %d of %d threads)", len(gone), rt.s)
	}
	rt.retired = true
	return newRuntime(rt.cfg, s, rt.model, rt.tr, append(rt.EvictedThreads(), dead...)), nil
}

// evictWire is Evict on a multi-process fabric. The wire constraint is node
// granularity: a process cannot hand its memory to a peer, so any dead
// thread evicts its whole node and the survivors keep contiguous block
// ownership under dense renumbering. The dead node set is agreed
// cluster-wide through the transport's NodeEvictor extension — the agreed
// set may be a superset of the local proposal (peers fold in their own
// detections) — and a node that finds itself in the agreed set hard-fails
// its own endpoint and reports self-eviction instead of a remapped runtime.
func (rt *Runtime) evictWire(dead []int) (*Runtime, error) {
	ev, ok := rt.tr.(NodeEvictor)
	if !ok {
		return nil, Errorf(ErrMisuse, -1, "Evict",
			"transport %T cannot agree on node eviction", rt.tr)
	}
	tpn := rt.cfg.ThreadsPerNode
	deadNodes := make([]int, 0, len(dead))
	for _, id := range dead {
		if id < 0 || id >= rt.s {
			return nil, Errorf(ErrMisuse, -1, "Evict", "thread %d out of range [0,%d)", id, rt.s)
		}
		deadNodes = append(deadNodes, id/tpn)
	}
	slices.Sort(deadNodes)
	if deadNodes = slices.Compact(deadNodes); len(deadNodes) >= rt.cfg.Nodes {
		return nil, Errorf(ErrMisuse, -1, "Evict", "no survivors (evicting all %d nodes)", rt.cfg.Nodes)
	}
	rt.retired = true
	agreed, err := ev.EvictNodes(deadNodes)
	if slices.Contains(deadNodes, rt.node) || slices.Contains(agreed, rt.node) {
		// This node is dying, or a peer's proposal named it dead and the
		// cluster agreed. It took part in the agreement so the survivors
		// drain deterministically; now it tears its endpoint down without a
		// goodbye, so any remaining detection path classifies it as crashed
		// rather than departed, instead of running a geometry the
		// survivors no longer count it in.
		_ = ev.Fail()
		return nil, Errorf(ErrEvicted, -1, "Evict",
			"node %d evicted from the wire cluster; survivors continue", rt.node)
	}
	if err != nil {
		return nil, err
	}
	// The agreement commits only after every other seat — the dying ones
	// included — has proposed or crashed, each after leaving its failed
	// region, and their earlier frames are ahead of their proposals on the
	// wire: nothing can address the retired geometry's windows any more.
	// Drop them; the remapped runtime draws its ids from the start again.
	rt.tr.Unexpose(0, rt.winc)
	p := rt.cfg.Nodes - len(agreed)
	if p < 1 || rt.tr.Nodes() != p {
		return nil, Errorf(ErrTransport, -1, "Evict",
			"membership disagrees after eviction: transport reports %d nodes, expected %d",
			rt.tr.Nodes(), p)
	}
	// The eviction ledger records every agreed node's threads in the old
	// numbering; agreed is ascending, so the ledger stays ascending.
	deadThreads := make([]int, 0, len(agreed)*tpn)
	for _, nd := range agreed {
		for k := 0; k < tpn; k++ {
			deadThreads = append(deadThreads, nd*tpn+k)
		}
	}
	cfg := rt.cfg
	cfg.Nodes = p
	return newRuntime(cfg, p*tpn, rt.model, rt.tr, append(rt.EvictedThreads(), deadThreads...)), nil
}

// Thread is one PGAS execution context. Each Thread is driven by exactly
// one goroutine during Run; its clock and scratch state are unsynchronized
// by design.
type Thread struct {
	rt    *Runtime
	ID    int // global thread id in [0, s)
	Node  int // node id in [0, p)
	Local int // thread id within the node, in [0, t)
	Clock sim.Clock
	// rounds counts the Reducer.Loop rounds of the current region.
	rounds int
	// limit is the clock up to which th holds a one-sided region's turn;
	// -Inf when it does not hold it.
	limit float64
}

// Runtime returns the owning runtime.
func (th *Thread) Runtime() *Runtime { return th.rt }

// id is th's thread id for error attribution, -1 for a host-side call.
func (th *Thread) id() int {
	if th == nil {
		return -1
	}
	return th.ID
}

// Result summarizes one SPMD region execution.
type Result struct {
	// SimNS is the simulated makespan: the maximum thread clock.
	SimNS float64
	// Wall is the real elapsed time of the region (informational only).
	Wall time.Duration
	// SumByCategory is the per-category simulated time summed over all
	// threads. Divide by Threads for a per-thread average.
	SumByCategory sim.Breakdown
	// Threads is the thread count the region ran with.
	Threads int
	// Messages, Bytes, RemoteOps, CacheMisses aggregate thread counters.
	Messages    int64
	Bytes       int64
	RemoteOps   int64
	CacheMisses float64
	// Rounds is the number of Reducer.Loop rounds the region ran. Every
	// thread runs the same rounds, so it is read from a thread this
	// process drives and every node of a wire cluster reports it alike.
	Rounds int
}

// AvgByCategory returns the per-thread average category breakdown.
func (r *Result) AvgByCategory() sim.Breakdown {
	b := r.SumByCategory
	if r.Threads > 0 {
		b.Scale(1 / float64(r.Threads))
	}
	return b
}

// SimMS returns the simulated makespan in milliseconds.
func (r *Result) SimMS() float64 { return r.SimNS / 1e6 }

// Run executes fn on every thread concurrently (one goroutine per thread),
// waits for all of them, and returns the aggregated result. Clocks and
// counters are reset at region entry. Run must not be called reentrantly.
//
// A panic on any thread is propagated to Run's caller instead of crashing
// the process: the panicking thread poisons the barrier with its panic
// value so its peers unwind (each waiter panics out of its next rendezvous
// with a wrapper naming the root cause) and the originating value — never
// a peer's "barrier broken" wrapper — is re-raised once every goroutine
// has exited. This is what lets the verification harness treat a kernel
// blow-up under an injected fault as a detected failure rather than a
// process abort. The runtime's barrier is replaced afterwards, but thread
// clocks are left mid-region; a runtime that panicked should be discarded.
func (rt *Runtime) Run(fn func(th *Thread)) *Result {
	res, err := rt.RunE(fn)
	if err != nil {
		panic(err)
	}
	return res
}

// RunOneSided is Run for a region that issues single-word accesses (Get,
// Put, PutMin, AtomicMin), which panic with ErrMisuse anywhere else: the
// threads take a clock-ordered turn through it (see turn), so its
// accesses, their charges and its result are the same on every run and
// under any GOMAXPROCS. The turn orders one process's threads only, so a
// runtime on a non-shared transport refuses the region with ErrMisuse.
func (rt *Runtime) RunOneSided(fn func(th *Thread)) *Result {
	if !rt.tr.Shared() {
		panic(Errorf(ErrMisuse, -1, "RunOneSided", "one-sided regions run on a shared transport only"))
	}
	rt.turn = newTurn(rt)
	defer func() { rt.turn = nil }()
	return rt.Run(fn)
}

// RunE is Run returning classified runtime failures as error values: when
// a thread's panic value is (or wraps) a *Error — a transport fault, an
// exhausted retry budget, a detected corruption, an API misuse — RunE
// returns it instead of re-panicking, so callers can propagate
// operational faults through their signatures instead of tearing down the
// process. Unclassified panics (a kernel bug, an index out of a private
// slice's range) still propagate as panics.
//
// Failure causes are recorded in per-thread slots, not first-to-arrive
// order, so the outcome of a multi-failure region is deterministic: an
// unclassified panic (from the lowest-id panicking thread) outranks
// everything; otherwise, if any thread was evicted (ErrEvicted), every
// evicted thread in the region is collected — ascending id — into one
// EvictionError; otherwise the lowest-id thread's classified error is
// returned. Goroutine scheduling decides none of it.
func (rt *Runtime) RunE(fn func(th *Thread)) (*Result, error) {
	if rt.retired {
		return nil, Errorf(ErrMisuse, -1, "Run",
			"runtime retired by eviction (%d threads lost); run on the remapped runtime", len(rt.evicted))
	}
	if !rt.tr.Shared() {
		// Region-entry rendezvous: host-side code exposes this region's
		// windows without communication (SPMD-symmetric IDs), so a fast
		// peer's first coalesced frames could otherwise arrive while a slow
		// process still has a previous runtime's slices registered under
		// the same names. No wire op may leave a node before every node has
		// entered the region.
		if _, err := rt.tr.Rendezvous(0); err != nil {
			rt.draining = rt.draining || Evicted(err) != nil
			return nil, err
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(rt.locals))
	start := time.Now()
	causes := make([]interface{}, rt.s)
	rt.bar.turn = rt.turn
	for _, th := range rt.locals {
		th.Clock.Reset()
		th.rounds = 0
		th.limit = math.Inf(-1)
		go func(th *Thread) {
			defer wg.Done()
			defer func() {
				r := recover()
				if rt.turn != nil {
					rt.turn.leave(th, false)
				}
				// A barrierBroken wrapper is a peer's unwind, not an
				// independent failure: the breaker recorded its own cause
				// before it poisoned the barrier.
				if _, peer := r.(barrierBroken); r == nil || peer {
					return
				}
				causes[th.ID] = r
				rt.bar.breakBarrier(r)
			}()
			fn(th)
			if rt.turn != nil {
				rt.turn.leave(th, true)
			}
		}(th)
	}
	wg.Wait()
	var evicted []int
	var firstClassified error
	var firstUnclassified interface{}
	for id, r := range causes {
		if r == nil {
			continue
		}
		ce, ok := Classified(r)
		switch {
		case !ok:
			if firstUnclassified == nil {
				firstUnclassified = r
			}
		case errors.Is(ce, ErrEvicted):
			// A transport-origin EvictionError names the remote dead
			// threads; a locally killed thread names itself.
			ths := []int{id}
			if err, isErr := r.(error); isErr {
				if remote := Evicted(err); len(remote) > 0 {
					ths = remote
				}
			}
			evicted = append(evicted, ths...)
		case firstClassified == nil:
			firstClassified = r.(error)
		}
	}
	if firstUnclassified != nil || len(evicted) > 0 || firstClassified != nil {
		rt.bar = newBarrier(rt)
		evicting := firstUnclassified == nil && len(evicted) > 0
		if !rt.tr.Shared() {
			if evicting {
				rt.draining = true
			} else {
				// Poison the cluster: peers blocked in a rendezvous this
				// process will never reach must unwind with a classified
				// error rather than wait out their deadlines. The transport
				// stays poisoned; a failed wire region retires the whole
				// cluster. Eviction is the exception — it is the
				// recoverable class, and the transport has already agreed
				// (or will agree, via the supervisor's Evict) on the
				// survivor geometry.
				rt.tr.Abort(fmt.Sprintf("node %d: region failed", rt.node))
			}
		}
		switch {
		case firstUnclassified != nil:
			panic(firstUnclassified)
		case len(evicted) > 0:
			slices.Sort(evicted)
			return nil, &EvictionError{Threads: slices.Compact(evicted)}
		}
		return nil, firstClassified
	}
	if !rt.tr.Shared() {
		if err := rt.syncReplicas(); err != nil {
			rt.bar = newBarrier(rt)
			rt.draining = rt.draining || Evicted(err) != nil
			return nil, err
		}
	}
	res := &Result{Wall: time.Since(start), Threads: len(rt.locals), Rounds: rt.locals[0].rounds}
	for _, th := range rt.locals {
		res.SimNS = max(res.SimNS, th.Clock.NS)
		res.SumByCategory.Add(&th.Clock.ByCategory)
		res.Messages += th.Clock.Messages
		res.Bytes += th.Clock.Bytes
		res.RemoteOps += th.Clock.RemoteOps
		res.CacheMisses += th.Clock.CacheMisses
	}
	return res, nil
}

// Barrier performs a full barrier: all threads rendezvous, clocks advance
// to the global maximum, and each thread is charged the barrier cost
// (attributed to the comm category, as barriers ride the interconnect).
// Under armed chaos a thread may stall (charged to the wait category)
// before arriving — the post-barrier clocks still all equal the
// pre-barrier maximum, stalls included, plus the modeled barrier cost.
//
// With a checkpoint manager armed, a due barrier extends into a
// checkpoint: the last arriver decides due-ness under the barrier lock
// (so every thread sees the same verdict), each thread copies its own
// block of every registered array into the inactive shadow buffer, and a
// second rendezvous commits the snapshot — the copy window is bracketed
// by two full barriers, so no thread can be mutating superstep k+1 state
// while a peer still snapshots superstep k (no torn snapshots).
func (th *Thread) Barrier() {
	if ch := th.rt.chaos; ch != nil {
		th.chaosStall(ch)
	}
	if t := th.rt.turn; t != nil {
		t.leave(th, true)
	}
	ck := th.rt.ckpt
	if ck == nil {
		th.rendezvous(nil)
		return
	}
	th.rendezvous(ck.onArrive)
	if ck.due {
		th.ckptCopy(ck)
		th.rendezvous(ck.onCommit)
	}
}

// rendezvous is one full barrier: th's clock advances to the release and
// is charged the barrier.
func (th *Thread) rendezvous(onComplete func()) {
	th.Clock.AdvanceTo(th.rt.bar.await(th.Clock.NS, onComplete))
	th.Clock.Charge(sim.CatComm, th.rt.model.Barrier(th.rt.s))
}

// barrierBroken is the panic value a waiter unwinds with when a peer
// poisons the barrier. It carries the peer's original panic value so no
// layer of the unwind loses the root cause; Runtime.RunE unwraps it when
// recording, and its message names the cause for anything that prints the
// panic directly.
type barrierBroken struct{ cause interface{} }

func (b barrierBroken) String() string {
	return fmt.Sprintf("pgas: barrier broken by a peer thread's panic: %v", b.cause)
}

// barrier is a reusable rendezvous for n goroutines that also computes the
// maximum simulated clock among arrivers. When rdv is set (wire transport),
// the completing arriver extends every generation into a cross-process
// rendezvous: it trades local maxima with the peer processes and releases
// waiters at the global maximum, so barrier clock semantics are identical
// across backends. A failed rendezvous (peer death, deadline, abort)
// poisons the barrier exactly like a participant panic, with the
// transport's classified error as the cause.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	rdv     func(localMax float64) (float64, error)
	arrived int
	gen     uint64
	max     float64
	release float64
	broken  bool        // a participant panicked; all waiters must unwind
	cause   interface{} // the breaking participant's panic value
	turn    *turn       // a one-sided region's turn, rejoined at every release
}

// newBarrier builds the barrier over the threads rt drives, hooked into
// the transport rendezvous when the fabric spans processes. A region that
// failed replaces its broken barrier with a fresh one.
func newBarrier(rt *Runtime) *barrier {
	b := &barrier{n: len(rt.locals)}
	if !rt.tr.Shared() {
		b.rdv = rt.tr.Rendezvous
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n goroutines have called it, then returns the
// maximum clock value passed by any of them for this generation. If the
// barrier is (or becomes) broken, await panics instead of blocking
// forever on a peer that will never arrive; the panic value carries the
// breaking peer's own panic value as the root cause.
//
// onComplete, when non-nil, is invoked exactly once per generation — by
// the completing arriver, under the barrier lock, before any waiter is
// released — which makes it the one place per-rendezvous bookkeeping
// (the checkpoint manager's due-ness and commit transitions) can run
// race-free and scheduling-independently.
func (b *barrier) await(clock float64, onComplete func()) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic(barrierBroken{cause: b.cause})
	}
	b.max = max(b.max, clock)
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		release := b.max
		b.max = 0
		if b.rdv != nil {
			// The cross-process leg. Holding b.mu here is deliberate: every
			// local peer is parked in cond.Wait (releasing the lock), and
			// the lock order local-thread -> b.mu -> transport internals is
			// the happens-before chain that publishes pre-barrier writes to
			// the transport's frame handlers and vice versa.
			g, err := b.rdv(release)
			if err != nil {
				b.broken = true
				b.cause = err
				b.cond.Broadcast()
				panic(err)
			}
			release = g
		}
		b.release = release
		b.gen++
		if b.turn != nil {
			b.turn.rejoin()
		}
		if onComplete != nil {
			onComplete()
		}
		b.cond.Broadcast()
		return b.release
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
		// Only unwind if OUR generation can no longer complete. A waiter
		// whose generation already released may still observe broken here
		// when a peer passed the barrier, raced ahead, and panicked before
		// this goroutine was rescheduled — it must return normally, or
		// thread progress (and the chaos fault schedule) would depend on
		// scheduling instead of being deterministic.
		if b.broken && gen == b.gen {
			panic(barrierBroken{cause: b.cause})
		}
	}
	return b.release
}

// breakBarrier marks the barrier broken, records the breaking
// participant's panic value (first breaker wins), and wakes every waiter
// so they unwind. Called when a participant panics; see Runtime.RunE.
func (b *barrier) breakBarrier(cause interface{}) {
	b.mu.Lock()
	if !b.broken {
		b.broken = true
		b.cause = cause
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Span divides total items into parts blocks and returns the half-open
// range of block idx. Blocks differ in size by at most one and earlier
// blocks are larger; idx must be in [0, parts).
func Span(total int64, parts, idx int) (lo, hi int64) {
	p := int64(parts)
	i := int64(idx)
	base := total / p
	rem := total % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// Span returns this thread's block of a total-item iteration space divided
// evenly over all threads — the runtime's upc_forall with blocked affinity.
func (th *Thread) Span(total int64) (lo, hi int64) {
	return Span(total, th.rt.s, th.ID)
}

// SharedArray is a one-dimensional shared array of 64-bit words, in
// global-index order, under the paper's blocked distribution: thread i
// owns (serves) [i*blk, (i+1)*blk) where blk = ceil(n/s) (see
// partition.go).
type SharedArray struct {
	rt  *Runtime
	n   int64
	blk int64
	// recip is blockRecip(n, blk): owner keys by multiplication; 0 keeps
	// the division.
	recip uint64
	data  []int64
	name  string
	win   Win // transport window name; zero on a shared fabric
}

// NewSharedArray allocates a shared array of n elements (zero-initialized)
// and charges nothing; allocation cost is the caller's to model (the
// collectives charge it to the work category). name is used in
// diagnostics.
func (rt *Runtime) NewSharedArray(name string, n int64) *SharedArray {
	if n < 0 {
		panic(Errorf(ErrMisuse, -1, "NewSharedArray", "negative shared array size %d", n))
	}
	blk := int64(1)
	if n > 0 {
		blk = (n + int64(rt.s) - 1) / int64(rt.s)
	}
	a := &SharedArray{rt: rt, n: n, blk: blk, recip: blockRecip(n, blk), data: make([]int64, n), name: name}
	if !rt.tr.Shared() {
		// Wire: the slice is a full-size replica, authoritative only for
		// this node's blocks. Register it so remote processes can address
		// it, and track it for the post-region refresh.
		a.win = Win{Kind: WinArray, ID: rt.NewWinID()}
		rt.tr.Expose(a.win, a.data)
		rt.arrays = append(rt.arrays, a)
	}
	return a
}

// nodeRange returns the half-open element range owned by node nd's threads.
func (a *SharedArray) nodeRange(nd int) (lo, hi int64) {
	lo = int64(nd) * int64(a.rt.cfg.ThreadsPerNode) * a.blk
	return min(lo, a.n), min(lo+int64(a.rt.cfg.ThreadsPerNode)*a.blk, a.n)
}

// Len returns the element count.
func (a *SharedArray) Len() int64 { return a.n }

// Name returns the diagnostic name the array was allocated with.
func (a *SharedArray) Name() string { return a.name }

// Owner returns the thread id owning element i. Out-of-range indices are a classified misuse, never
// a silently mis-attributed owner.
func (a *SharedArray) Owner(i int64) int {
	if i < 0 || i >= a.n {
		panic(Errorf(ErrMisuse, -1, "Owner", "index %d out of range [0,%d) in %s", i, a.n, a.name))
	}
	return int(a.OwnerKey(i))
}

// OwnerKey is Owner as the int32 sort key of the collectives' plan build,
// cheap enough to call once per request: it inlines and stays pure
// arithmetic (the paper's id optimization), one multiply where the
// reciprocal is exact (see blockRecip). A caller keying requests checks
// them first, with a message of its own; an index that slips past still
// panics, unclassified.
func (a *SharedArray) OwnerKey(i int64) int32 {
	if uint64(i) >= uint64(a.n) {
		panic("pgas: OwnerKey index out of range")
	}
	return blockKey(i, a.blk, a.recip)
}

// ownerNode returns the node id owning element i.
func (a *SharedArray) ownerNode(i int64) int {
	return a.Owner(i) / a.rt.cfg.ThreadsPerNode
}

// NodeSpan returns the number of elements a thread's irregular local
// accesses range over — the working-set size the cache model uses: the
// node's blocks, blk elements per thread, contiguous.
func (a *SharedArray) NodeSpan() int64 {
	return max(1, min(a.blk*int64(a.rt.cfg.ThreadsPerNode), a.n))
}

// Raw returns the backing slice for *uncharged* access. Use it only for
// initialization, verification, and inside collectives that charge costs
// explicitly. Concurrent mutation must go through the atomic helpers.
func (a *SharedArray) Raw() []int64 { return a.data }

// LoadRaw atomically reads element i without charging.
func (a *SharedArray) LoadRaw(i int64) int64 { return atomic.LoadInt64(&a.data[i]) }

// StoreRaw atomically writes element i without charging.
func (a *SharedArray) StoreRaw(i int64, v int64) { atomic.StoreInt64(&a.data[i], v) }

// Fill sets every element to v without charging.
func (a *SharedArray) Fill(v int64) {
	for i := range a.data {
		a.data[i] = v
	}
}

// FillIdentity sets element i to i without charging (the D[i] = i init).
func (a *SharedArray) FillIdentity() {
	for i := range a.data {
		a.data[i] = int64(i)
	}
}

// word is the one single-word access charge under Get, Put, PutMin and
// AtomicMin, and a turn point of the region's turn (RunOneSided). It
// decides once whether element i of a lives on another node and charges
// the access as one sum: msgs small messages of legs wire legs each when
// it does, one irregular local access otherwise. The word itself is in
// this process's memory either way: RunOneSided runs on a shared
// transport only.
func (th *Thread) word(a *SharedArray, i int64, cat sim.Category, legs int, msgs int64) {
	t := th.rt.turn
	if th.Clock.NS > th.limit {
		t.point(th)
	}
	if a.ownerNode(i) == th.Node {
		w := t.array(a)
		th.Clock.Charge(cat, w.localNS)
		th.Clock.CacheMisses += w.localMisses
		return
	}
	th.Clock.Charge(cat, float64(msgs)*t.smallOp[legs])
	th.Clock.Messages += msgs
	th.Clock.Bytes += msgs * sim.ElemBytes
	th.Clock.RemoteOps++
}

// Get performs a single-element one-sided read, charging either an
// intra-node irregular access or a small-message round trip (request plus
// response). This is the access the paper's naive (literally translated)
// codes issue per edge.
func (th *Thread) Get(a *SharedArray, i int64, cat sim.Category) int64 {
	th.word(a, i, cat, 2, 1)
	return a.LoadRaw(i)
}

// Put performs a single-element one-sided write with the same cost
// structure as Get (one-way, so no return leg).
func (th *Thread) Put(a *SharedArray, i int64, v int64, cat sim.Category) {
	th.word(a, i, cat, 1, 1)
	a.StoreRaw(i, v)
}

// PutMin lowers element i to v if smaller, with Put's cost structure (no
// lock term: CC's grafts are arbitrary-CRCW writes, which the monotone min
// makes convergent). Reports whether the element was updated.
func (th *Thread) PutMin(a *SharedArray, i int64, v int64, cat sim.Category) bool {
	return th.putMin(a, i, v, cat, 1, 1)
}

// AtomicMin lowers element i to v if smaller, charging a Get-like access
// plus a lock acquire (the paper's MST guards min-edge updates with
// fine-grained locks). Remotely the lock, read and conditional write are
// two round trips. The lock is modelled: the acquire is contended when its
// simulated hold overlaps another thread's hold of the same word, as the
// region's turn recorded it. Reports whether the element was updated.
func (th *Thread) AtomicMin(a *SharedArray, i int64, v int64, cat sim.Category) bool {
	start := th.Clock.NS
	stored := th.putMin(a, i, v, cat, 2, 2)
	w := th.rt.turn.array(a)
	if w.holds == nil {
		w.holds = make([]lockHold, a.n)
	}
	h := &w.holds[i]
	busy := h.by != 0 && h.by != th.ID+1 && start < h.end && h.start < th.Clock.NS+th.rt.model.Lock(false)
	th.Clock.Charge(cat, th.rt.model.Lock(busy))
	*h = lockHold{start: start, end: th.Clock.NS, by: th.ID + 1}
	return stored
}

// putMin is PutMin and AtomicMin's access: word's charge, then the min in
// place.
func (th *Thread) putMin(a *SharedArray, i int64, v int64, cat sim.Category, legs int, msgs int64) bool {
	th.word(a, i, cat, legs, msgs)
	return casMin(&a.data[i], v)
}

// GetBulk reads len(dst) contiguous elements starting at start into dst,
// coalesced into one message when the range is remote. Ranges must not
// span node boundaries for remote access (callers align transfers to the
// block distribution, as Algorithm 2 does). Under armed chaos a remote
// transfer may be dropped or corrupted; GetBulk retransmits through Retry,
// recharging the wire on every attempt.
func (th *Thread) GetBulk(a *SharedArray, start int64, dst []int64, cat sim.Category) {
	k := int64(len(dst))
	if k == 0 {
		return
	}
	th.checkRange("GetBulk", a, start, k)
	if a.ownerNode(start) == th.Node {
		th.Clock.Charge(cat, th.rt.model.SeqScan(k))
		th.deliverGet(a, start, dst)
		return
	}
	th.Clock.RemoteOps++
	th.Retry(func() error {
		th.chargeTransfer(cat, k)
		th.deliverGet(a, start, dst)
		return th.TransportFault(cat, dst)
	}, func() (string, string) {
		return "GetBulk", fmt.Sprintf("%s[%d,%d): no clean delivery", a.name, start, start+k)
	})
}

// chargeTransfer charges one coalesced bulk read of k elements to the wire:
// the modeled message time plus the request leg's latency (a read is a
// round trip), one message, and the payload bytes. GetBulk shares it
// between the initial send and every retransmit, so the two cannot drift.
// RemoteOps is deliberately not counted here: it counts logical one-sided
// operations, which a retransmit repeats rather than adds to.
func (th *Thread) chargeTransfer(cat sim.Category, k int64) {
	bytes := k * sim.ElemBytes
	th.Clock.Charge(cat, th.rt.model.Message(bytes, th.rt.cfg.ThreadsPerNode)+th.rt.cfg.NetLatency)
	th.Clock.Messages++
	th.Clock.Bytes += bytes
}

// deliverGet moves a bulk read's payload: direct atomic loads when the
// owner shares this process's memory, one coalesced wire read otherwise.
// A real wire failure is already classified and raises through the
// barrier-poisoning path — unlike an injected verdict it is not
// retryable, because a failed wire region poisons the whole cluster.
func (th *Thread) deliverGet(a *SharedArray, start int64, dst []int64) {
	if !th.rt.tr.Shared() && a.ownerNode(start) != th.rt.node {
		if err := th.rt.tr.Get(th, a.ownerNode(start), a.win, start, dst); err != nil {
			panic(err)
		}
		return
	}
	for j := range dst {
		dst[j] = a.LoadRaw(start + int64(j))
	}
}

func (th *Thread) checkRange(op string, a *SharedArray, start, k int64) {
	if start < 0 || start+k > a.n {
		panic(Errorf(ErrMisuse, th.ID, op, "range [%d,%d) out of bounds [0,%d) in %s",
			start, start+k, a.n, a.name))
	}
}

// Charge helpers: collectives and algorithm kernels perform raw data
// movement themselves and account for it explicitly through these.

// ChargeSeq charges a sequential scan over k elements.
func (th *Thread) ChargeSeq(cat sim.Category, k int64) {
	th.Clock.Charge(cat, th.rt.model.SeqScan(k))
}

// ChargeIrregular charges k random accesses into a block of blockElems.
func (th *Thread) ChargeIrregular(cat sim.Category, k, blockElems int64) {
	ns, misses := th.rt.model.IrregularAccess(k, blockElems)
	th.Clock.Charge(cat, ns)
	th.Clock.CacheMisses += misses
}

// ChargeOps charges k simple operations.
func (th *Thread) ChargeOps(cat sim.Category, k int64) {
	th.Clock.Charge(cat, th.rt.model.Ops(k))
}

// ChargeSharedPtr charges k shared-pointer accesses to local data.
func (th *Thread) ChargeSharedPtr(cat sim.Category, k int64) {
	th.Clock.Charge(cat, th.rt.model.SharedPtrAccess(k))
}

// ChargeMessage charges one explicit network message of the given size.
func (th *Thread) ChargeMessage(cat sim.Category, bytes int64) {
	th.Clock.Charge(cat, th.rt.model.Message(bytes, th.rt.cfg.ThreadsPerNode))
	th.Clock.Messages++
	th.Clock.Bytes += bytes
}

// ChargeSmallRemoteWrite charges one single-word remote store within an
// all-to-all burst (SMatrix/PMatrix setup).
func (th *Thread) ChargeSmallRemoteWrite(cat sim.Category) {
	th.Clock.Charge(cat, th.rt.model.SmallRemoteWrite(th.rt.cfg.ThreadsPerNode, th.rt.s))
	th.Clock.Messages++
	th.Clock.Bytes += sim.ElemBytes
}

// SameNode reports whether the peer thread id lives on this thread's node.
func (th *Thread) SameNode(peer int) bool {
	return peer/th.rt.cfg.ThreadsPerNode == th.Node
}
