// The transport seam: the fabric operations the runtime actually issues,
// abstracted so the in-process shared-memory fabric and a real multi-process
// wire backend are interchangeable underneath the same kernels.
//
// The seam sits below the cost model and below the chaos injector: simulated
// time, message/byte counters, and fault verdicts are charged by the runtime
// and the collective engine exactly as before, independent of which backend
// moves the bytes. A backend only moves data and reports *real* failures
// through the classified error taxonomy (ErrTransport, ErrTimeout,
// ErrCorrupt), so retry loops, barrier poisoning, and the verify harness
// treat a wire fault exactly like an injected one.
package pgas

import (
	"sync"
	"sync/atomic"
)

// WinKind classifies the memory windows a runtime exposes to its transport.
// Remote processes address memory as (kind, id, sub) triples rather than
// pointers; the id is drawn from a per-runtime counter advanced only by
// host-side allocation calls, so SPMD-replicated processes agree on every
// window's name without communicating.
type WinKind uint8

const (
	// WinArray is a SharedArray's backing store (Sub unused).
	WinArray WinKind = iota + 1
	// WinPlanReq is one thread's published request-key buffer of a
	// collective plan (Sub = owning thread id).
	WinPlanReq
	// WinPlanVal is one thread's value receive/serve buffer of a plan
	// (Sub = owning thread id).
	WinPlanVal
	// WinMatS is a plan's SMatrix (request counts, Sub unused).
	WinMatS
	// WinMatP is a plan's PMatrix (request offsets, Sub unused).
	WinMatP
	// WinReduce is a barrier reducer's slot vector (Sub = buffer parity).
	WinReduce
)

// Win names one exposed memory window.
type Win struct {
	Kind WinKind
	ID   uint32
	Sub  int32
}

// Transport is the fabric under the runtime: bulk one-sided get/put against
// remote windows, a min-combining word store (the matrix publish and
// reducer broadcasts ride Put; no runtime path issues PutMin, since
// one-sided regions run in process only), and barrier rendezvous across
// processes.
//
// A shared transport (Shared() == true) means every node lives in this
// process and the runtime keeps its direct-memory fast paths; its data
// plane, a node check in front of the WinTable the wire backend keeps too,
// obeys the same window laws but the runtime never needs it. A non-shared
// transport holds only this process's node; the runtime routes every
// cross-process access through it.
//
// Contract:
//   - Expose registers a window before any remote access; callers only
//     re-Expose a window when its backing slice is reallocated. Unexpose
//     drops windows by id range once their owner is done with them; it is
//     host-side like Expose and is only called when no peer can still
//     address them (after a region's closing rendezvous). Access to a
//     dropped window fails like access to one never exposed.
//   - Get/Put/PutMin address element offsets within the window; th is the
//     issuing thread for error attribution and may be nil for host-side
//     calls. Errors are always classified (ErrTransport for a lost or
//     failed exchange, ErrTimeout for a missed deadline, ErrCorrupt for a
//     checksum mismatch); the runtime raises them through the
//     barrier-poisoning path.
//   - Rendezvous is the cross-process leg of a barrier: every process calls
//     it in the same sequence with its local clock maximum and receives the
//     global maximum. It must not hang: a peer that never arrives surfaces
//     as ErrTimeout.
//   - Abort poisons the transport after a local region failure so peers
//     blocked in Rendezvous or Get unwind with a classified error instead
//     of waiting out their deadlines; a poisoned transport stays poisoned.
type Transport interface {
	// Shared reports whether all nodes share this process's memory.
	Shared() bool
	// Nodes returns the node count p.
	Nodes() int
	// Node returns this process's node id (0 when Shared).
	Node() int
	// Expose registers (or re-registers, after reallocation) a window.
	Expose(w Win, data []int64)
	// Unexpose drops every window whose id lies in (lo, hi].
	Unexpose(lo, hi uint32)
	// Get reads len(dst) elements of node's window w starting at off.
	Get(th *Thread, node int, w Win, off int64, dst []int64) error
	// Put writes src into node's window w starting at off. Delivery may be
	// buffered; it is ordered before any later Rendezvous with that node.
	Put(th *Thread, node int, w Win, off int64, src []int64) error
	// PutMin atomically lowers node's window element to v if smaller,
	// reporting whether it stored.
	PutMin(th *Thread, node int, w Win, off int64, v int64) (bool, error)
	// Rendezvous blocks until every process arrives, returning the global
	// maximum of the values passed in.
	Rendezvous(localMax float64) (float64, error)
	// Abort poisons the transport with a cause, unblocking local and
	// remote waiters with classified errors.
	Abort(cause string)
	// Close releases the transport's resources.
	Close() error
}

// NodeEvictor is the optional transport extension that makes node-level
// fault tolerance possible on a multi-process fabric. A transport that
// implements it classifies a dead peer as *EvictionError (instead of a
// sticky abort) and can agree with the surviving peers on a shrunk
// geometry, so Runtime.Evict works over the wire.
//
// Contract:
//   - EvictNodes proposes a set of node ids (in the transport's current
//     dense numbering) as dead and blocks until every surviving node has
//     made its own proposal (or crashed). All survivors return the same
//     agreed dead set — the union of all proposals plus crash-detected
//     peers, possibly a superset of the local proposal — in the
//     pre-agreement numbering. Afterwards Nodes()/Node() report the shrunk
//     geometry. A node whose own id is in the proposal participates in the
//     agreement (so survivors drain deterministically) and must call Fail
//     once EvictNodes returns.
//   - Fail abruptly tears the local endpoint down without an orderly
//     goodbye, so peers classify this node as crashed. It is the eviction
//     counterpart of Close.
//   - Eviction is node-granular: a wire process cannot hand its memory to a
//     peer, so evicting any thread of a node evicts the whole node, and
//     the surviving geometry keeps block ownership contiguous.
type NodeEvictor interface {
	// EvictNodes agrees cluster-wide on the dead node set and commits the
	// shrunk geometry, returning the agreed set in pre-agreement numbering.
	EvictNodes(dead []int) ([]int, error)
	// Fail hard-closes this endpoint so peers classify it as crashed.
	Fail() error
}

// WinTable is the window registry both backends keep, and the one place a
// window's words are read, written and min-combined. WinArray windows are
// accessed atomically — the owner's threads touch them concurrently through
// the runtime's fast paths; plan and reducer windows are only accessed in
// barrier-separated phases and copy plainly. The table guards its map, not
// the words: a backend applying frames from several goroutines orders them
// itself. The zero value is an empty table.
type WinTable struct {
	mu sync.RWMutex
	m  map[Win][]int64
}

// Expose registers w, or rebinds it to data after a reallocation.
func (t *WinTable) Expose(w Win, data []int64) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[Win][]int64)
	}
	t.m[w] = data
	t.mu.Unlock()
}

// Unexpose drops every window whose id lies in (lo, hi]: one pass over the
// table, whatever kinds and subs the ids were exposed under.
func (t *WinTable) Unexpose(lo, hi uint32) {
	t.mu.Lock()
	for w := range t.m {
		if w.ID > lo && w.ID <= hi {
			delete(t.m, w)
		}
	}
	t.mu.Unlock()
}

// Len reports how many windows are exposed.
func (t *WinTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Window returns the words [off, off+k) of w, or an ErrMisuse charged to th
// and op when w is not exposed or the range leaves it.
func (t *WinTable) Window(th *Thread, op string, w Win, off, k int64) ([]int64, error) {
	t.mu.RLock()
	data, ok := t.m[w]
	t.mu.RUnlock()
	if !ok {
		return nil, Errorf(ErrMisuse, th.id(), op, "window %+v not exposed", w)
	}
	if off < 0 || k < 0 || off > int64(len(data)) || k > int64(len(data))-off {
		return nil, Errorf(ErrMisuse, th.id(), op, "range [%d,%d) out of window %+v len %d", off, off+k, w, len(data))
	}
	return data[off : off+k], nil
}

// Read copies len(dst) words of w starting at off into dst.
func (t *WinTable) Read(th *Thread, op string, w Win, off int64, dst []int64) error {
	src, err := t.Window(th, op, w, off, int64(len(dst)))
	if err != nil {
		return err
	}
	if w.Kind != WinArray {
		copy(dst, src)
		return nil
	}
	for j := range dst {
		dst[j] = atomic.LoadInt64(&src[j])
	}
	return nil
}

// Write copies src into w starting at off.
func (t *WinTable) Write(th *Thread, op string, w Win, off int64, src []int64) error {
	dst, err := t.Window(th, op, w, off, int64(len(src)))
	if err != nil {
		return err
	}
	if w.Kind != WinArray {
		copy(dst, src)
		return nil
	}
	for j, v := range src {
		atomic.StoreInt64(&dst[j], v)
	}
	return nil
}

// Min lowers w's word at off to v if smaller, reporting whether it stored.
func (t *WinTable) Min(th *Thread, op string, w Win, off int64, v int64) (bool, error) {
	word, err := t.Window(th, op, w, off, 1)
	if err != nil {
		return false, err
	}
	return casMin(&word[0], v), nil
}

// casMin is the one atomic lower-to-minimum: it stores v at *p while v is
// below the word there, reporting whether it stored.
func casMin(p *int64, v int64) bool {
	for {
		cur := atomic.LoadInt64(p)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return true
		}
	}
}

// inprocTransport is the reference Transport: all nodes in one process, all
// windows in one table, rendezvous a no-op (the runtime's own barrier
// already spans every thread). It never fails: the in-process fabric is
// reliable by construction, so the only error source above it is the chaos
// injector.
type inprocTransport struct {
	WinTable
	nodes int
}

// NewInprocTransport returns the in-process reference transport for p nodes.
// Runtime.New installs one implicitly; the constructor exists so the
// transport conformance suite can drive the reference implementation through
// the same interface as a wire backend.
func NewInprocTransport(nodes int) Transport {
	return &inprocTransport{nodes: nodes}
}

func (t *inprocTransport) Shared() bool { return true }
func (t *inprocTransport) Nodes() int   { return t.nodes }
func (t *inprocTransport) Node() int    { return 0 }

// checkNode refuses a node id outside the fabric.
func (t *inprocTransport) checkNode(th *Thread, op string, node int) error {
	if node < 0 || node >= t.nodes {
		return Errorf(ErrMisuse, th.id(), op, "node %d out of range [0,%d)", node, t.nodes)
	}
	return nil
}

func (t *inprocTransport) Get(th *Thread, node int, w Win, off int64, dst []int64) error {
	if err := t.checkNode(th, "transport Get", node); err != nil {
		return err
	}
	return t.Read(th, "transport Get", w, off, dst)
}

func (t *inprocTransport) Put(th *Thread, node int, w Win, off int64, src []int64) error {
	if err := t.checkNode(th, "transport Put", node); err != nil {
		return err
	}
	return t.Write(th, "transport Put", w, off, src)
}

func (t *inprocTransport) PutMin(th *Thread, node int, w Win, off int64, v int64) (bool, error) {
	if err := t.checkNode(th, "transport PutMin", node); err != nil {
		return false, err
	}
	return t.Min(th, "transport PutMin", w, off, v)
}

func (t *inprocTransport) Rendezvous(localMax float64) (float64, error) { return localMax, nil }
func (t *inprocTransport) Abort(cause string)                           {}
func (t *inprocTransport) Close() error                                 { return nil }
