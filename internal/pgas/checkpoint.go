// Superstep checkpointing: the recovery half of the chaos layer.
//
// The kernels this runtime exists for keep their distributed state in a
// handful of per-vertex shared arrays (D, parent, rank — FastSV-style
// label propagation state), which is small relative to the graph. That is
// what makes checkpointing cheap enough to arm by default: at each due
// barrier every thread copies its own block of every registered array
// into a shadow buffer — one memcpy of n/(p·t) words per thread per
// array — and a second rendezvous commits the snapshot. The buffers are
// double-buffered, so a thread evicted mid-copy can never damage the
// last committed snapshot; the runtime rolls back to it, remaps the dead
// thread's blocks onto the survivors, and re-executes.
//
// Consistency argument: the copy window sits between two full barriers.
// All superstep-k writes complete before their issuing threads arrive at
// the first rendezvous, and no thread can issue a superstep-k+1 write
// until every thread has passed the second — so the snapshot is the
// quiesced state at a single superstep boundary, identical no matter how
// the goroutines interleave. Due-ness is decided once per generation by
// the completing arriver under the barrier lock, so every thread takes
// the same path.
package pgas

import (
	"sync"
	"sync/atomic"

	"pgasgraph/internal/sim"
)

// Register declares a named shared array as recoverable kernel state:
// it enrolls the array for superstep checkpointing, and — in a
// post-eviction recovery round — restores the last committed snapshot
// into the (re-blocked) array, which is what turns "re-execute from the
// start" into "resume from the last superstep boundary". No-op when rt
// has no armed checkpoint manager, so kernels declare unconditionally.
// Call it outside SPMD regions, after the array's initial fill: in a
// recovery round this is where the rollback state lands in the fresh
// array. It reports whether that happened: restored true means a no
// longer holds the caller's initial fill but the last committed snapshot,
// so a kernel that shortcuts work on freshly filled state (the CC
// kernels' identity round) must not.
//
// Only state that is resumable from an arbitrary superstep boundary may
// be registered: the label-propagation kernels qualify because their
// arrays are monotone (labels only decrease) and every iteration rescans
// the full input, so any quiesced intermediate state converges to the
// same answer. Kernels whose loop state cannot be cut at a barrier
// (frontiers, buckets, accumulated edge lists) register nothing and
// recover by deterministic re-execution instead.
func Register(rt *Runtime, name string, a *SharedArray) (restored bool) {
	return rt.ckpt != nil && rt.ckpt.register(name, a)
}

// ckptEntry is one registered array with its double-buffered shadows.
type ckptEntry struct {
	name string
	arr  *SharedArray
	// snaps are the two shadow buffers; at most one is being written at
	// any time and the other holds the newest committed snapshot that
	// includes this entry (see seq/buf).
	snaps [2][]int64
	// seq and buf name the newest committed snapshot containing this
	// entry: the manager's committed sequence number at that commit and
	// the buffer it landed in. seq 0 means never checkpointed.
	seq uint64
	buf int
	// pendingRestore marks the entry for restore-on-register during a
	// recovery round; consumed by the first Register of the name.
	pendingRestore bool
}

// Checkpointer is the superstep checkpoint manager. Arm one with
// ArmCheckpoints; kernels enroll state through the package-level
// Register; Thread.Barrier drives the snapshot protocol;
// Rebind carries the committed snapshots onto a remapped runtime after an
// eviction. Registration must happen outside SPMD regions (kernels
// register before their Run call); the barrier-driven snapshot path takes
// no locks beyond the barrier's own.
type Checkpointer struct {
	rt *Runtime

	mu      sync.Mutex // registration/rebind only
	entries []*ckptEntry
	byName  map[string]*ckptEntry

	// Rendezvous bookkeeping, written only by barrier onComplete hooks
	// (under the barrier lock) and read by threads between the two
	// rendezvous of a due barrier — ordering via the barrier itself.
	barriers uint64 // completed first-rendezvous count
	due      bool   // current barrier extends into a checkpoint
	active   int    // shadow buffer being written this checkpoint

	committedSeq atomic.Uint64 // committed snapshot count
	committedBuf int           // buffer of the newest committed snapshot

	bytes         atomic.Int64 // payload copied into snapshots
	restores      atomic.Int64 // arrays restored during recovery rounds
	restoredBytes atomic.Int64
}

// ArmCheckpoints installs a checkpoint manager on rt, snapshotting
// registered arrays at every barrier. Must not be called while a Run
// region is in flight. Returns the manager so a recovery supervisor can
// Rebind it across evictions.
func (rt *Runtime) ArmCheckpoints() *Checkpointer {
	ck := &Checkpointer{rt: rt, byName: make(map[string]*ckptEntry)}
	rt.ckpt = ck
	return ck
}

// DisarmCheckpoints removes the checkpoint manager; barriers return to
// the single-rendezvous fast path.
func (rt *Runtime) DisarmCheckpoints() { rt.ckpt = nil }

// register enrolls (or re-binds) a named shared array. First registration
// of a name allocates the two shadow buffers — the only allocation the
// checkpoint subsystem ever performs, so the steady-state barrier path
// stays allocation-free. During a recovery round (after Rebind), the
// first Register of a name whose snapshot survived restores the last
// committed contents into the new array: the array was re-created on the
// remapped geometry with a different block size, and the flat copy is
// precisely the ownership remap. Reports whether it restored.
func (ck *Checkpointer) register(name string, a *SharedArray) (restored bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	e := ck.byName[name]
	if e == nil {
		e = &ckptEntry{name: name}
		ck.byName[name] = e
		ck.entries = append(ck.entries, e)
	}
	if int64(len(e.snaps[0])) != a.Len() {
		e.snaps[0] = make([]int64, a.Len())
		e.snaps[1] = make([]int64, a.Len())
		e.seq = 0
		e.pendingRestore = false // re-sized: any old snapshot is unusable
		if !ck.rt.tr.Shared() {
			// On a wire transport each process snapshots only its own
			// node's blocks; the rest of the shadow buffers would stay
			// zero, and a restore would clobber remote blocks with zeros.
			// Seed both shadows from the registration-time contents (the
			// kernel's initial fill) so a restored remote block is either
			// the last region-synced value or the initial fill — both
			// valid resume points for the monotone kernels that register.
			copy(e.snaps[0], a.data)
			copy(e.snaps[1], a.data)
		}
	}
	e.arr = a
	if !e.pendingRestore {
		return false
	}
	copy(a.data, e.snaps[e.buf])
	e.pendingRestore = false
	ck.restores.Add(1)
	ck.restoredBytes.Add(a.Len() * sim.ElemBytes)
	return true
}

// Rebind moves the manager — with every committed snapshot — onto the
// remapped runtime a recovery supervisor built with Evict, and marks each
// snapshotted entry for restore-on-register: when the re-executed kernel
// re-creates and registers its arrays on the new geometry, their last
// committed contents come back. Entries never committed (registered after
// the last checkpoint, or no checkpoint fired yet) restart from their
// initial fill instead, which is still deterministic.
func (ck *Checkpointer) Rebind(rt *Runtime) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.rt = rt
	rt.ckpt = ck
	ck.due = false
	for _, e := range ck.entries {
		e.arr = nil
		e.pendingRestore = e.seq > 0
	}
}

// Barriers returns the completed-rendezvous count — recovery supervisors
// difference it around failed attempts to report re-executed supersteps.
func (ck *Checkpointer) Barriers() uint64 { return ck.barriers }

// Stats returns cumulative checkpoint activity: committed snapshots,
// bytes copied into snapshots, arrays restored during recovery, and bytes
// restored.
func (ck *Checkpointer) Stats() (checkpoints uint64, bytes int64, restores int64, restoredBytes int64) {
	return ck.committedSeq.Load(), ck.bytes.Load(), ck.restores.Load(), ck.restoredBytes.Load()
}

// onArrive runs under the barrier lock when the first rendezvous of a
// barrier completes: it counts the barrier and decides — once, for every
// thread identically — whether this barrier extends into a checkpoint.
func (ck *Checkpointer) onArrive() {
	ck.barriers++
	ck.due = len(ck.entries) > 0
	if ck.due {
		ck.active = 1 - ck.committedBuf
	}
}

// onCommit runs under the barrier lock when the commit rendezvous
// completes: every thread's copy is done, so the active buffer becomes
// the committed snapshot atomically for all registered arrays.
func (ck *Checkpointer) onCommit() {
	ck.committedBuf = ck.active
	seq := ck.committedSeq.Add(1)
	for _, e := range ck.entries {
		// An entry with no bound array (awaiting re-registration during a
		// recovery round) was not copied this generation: its own shadow
		// buffers are untouched, so its older committed snapshot — which
		// e.seq/e.buf still name — stays valid.
		if e.arr != nil {
			e.seq = seq
			e.buf = ck.committedBuf
		}
	}
	ck.due = false
}

// ckptCopy copies this thread's block of every registered array into the
// active shadow buffer, charging exactly the modeled sequential-copy cost
// of the words moved (the one-memcpy-per-thread steady-state cost the
// checkpoint design promises; the commit rendezvous adds one barrier).
// Checkpoint traffic never touches Messages/Bytes/RemoteOps — snapshots
// are node-local copies, and keeping them out of the transfer counters is
// what lets the transparency property ("a zero-fault checkpointed run is
// bit-identical to an uncheckpointed one, minus checkpoint rows") hold
// exactly.
func (th *Thread) ckptCopy(ck *Checkpointer) {
	buf := ck.active
	var words int64
	for _, e := range ck.entries {
		if e.arr == nil {
			continue // awaiting re-registration during a recovery round
		}
		// Each thread copies its owned block; any disjoint cover would do,
		// since the window sits between two full barriers.
		lo, hi := e.arr.ThreadCover(th.ID)
		if lo < hi {
			copy(e.snaps[buf][lo:hi], e.arr.data[lo:hi])
			words += hi - lo
		}
	}
	th.Clock.Charge(sim.CatCopy, th.rt.model.SeqScan(words))
	ck.bytes.Add(words * sim.ElemBytes)
}
