// Partition schemes: how a shared array's elements map onto threads.
//
// The paper's codes declare every shared array with the blocked
// distribution (thread i owns [i*blk, (i+1)*blk)), and the rest of the
// repo grew up assuming it. This file makes ownership a per-array
// property instead: a PartitionSpec selects block, cyclic, or hub-aware
// ownership at allocation time, and every layer that used to do /blk
// arithmetic asks the array instead.
//
// The data layout never changes: a SharedArray's backing slice is always
// in global-index order, whatever the scheme. What a scheme changes is
// *which thread owns* (serves) each element. Block ownership is
// contiguous, so owners can take a subslice view of their elements;
// cyclic and hub ownership are scattered, so owners operate on the full
// slice and touch only their own (disjoint) elements — correct under the
// same reasoning as before, since an element still has exactly one owner,
// and naturally penalized by the cache model through NodeSpan.
//
// Block and cyclic ownership are pure arithmetic (one multiply or one
// modulo per index — the paper's "id" optimization survives both); only
// the hub scheme pays for a per-index owner table, which is the price of
// placing individual high-degree vertices.
package pgas

import (
	"math"
	"math/bits"
)

// SchemeKind names a partition scheme.
type SchemeKind int

const (
	// SchemeBlock is the paper's blocked distribution: thread i owns the
	// contiguous range [i*blk, (i+1)*blk), blk = ceil(n/s). The zero
	// value, so existing call sites are untouched.
	SchemeBlock SchemeKind = iota
	// SchemeCyclic deals elements round-robin: thread i%s owns element i.
	// Ownership is scattered but stays pure arithmetic.
	SchemeCyclic
	// SchemeHub spreads a caller-supplied list of hub elements (typically
	// the highest-degree vertices) round-robin over the threads, and
	// block-distributes the remaining tail by ascending index. Ownership
	// goes through a per-index table.
	SchemeHub
)

// String returns the scheme's tag as used in trial descriptions and
// bench record names.
func (k SchemeKind) String() string {
	switch k {
	case SchemeBlock:
		return "block"
	case SchemeCyclic:
		return "cyclic"
	case SchemeHub:
		return "hub"
	}
	return "unknown"
}

// PartitionSpec selects a partition scheme for a shared array (or, via
// Runtime.SetPartition, for every array a runtime allocates). The zero
// value is the blocked distribution.
type PartitionSpec struct {
	// Kind selects the scheme.
	Kind SchemeKind
	// Hubs lists the hub elements for SchemeHub, ignored otherwise.
	// Entries beyond an array's length are skipped (one spec serves
	// arrays of different sizes); duplicates count once; negative ids
	// are a misuse.
	Hubs []int64
}

// validate reports whether the spec is usable. Negative hub ids and
// unknown kinds are misuses; hubs beyond a particular array's length are
// fine (filtered at table-build time).
func (ps PartitionSpec) validate() error {
	switch ps.Kind {
	case SchemeBlock, SchemeCyclic, SchemeHub:
	default:
		return Errorf(ErrMisuse, -1, "Partition", "unknown partition scheme %d", int(ps.Kind))
	}
	for _, h := range ps.Hubs {
		if h < 0 {
			return Errorf(ErrMisuse, -1, "Partition", "negative hub id %d", h)
		}
	}
	return nil
}

// checkThread validates a thread id against the runtime's thread count
// with a classified misuse error. Shared by every per-thread accessor so
// an out-of-range id (a stale geometry after eviction, an off-by-one in
// a peer loop) fails loudly instead of silently yielding an empty or
// aliased range.
func (a *SharedArray) checkThread(op string, id int) {
	if id < 0 || id >= a.rt.s {
		panic(Errorf(ErrMisuse, -1, op, "thread %d out of range [0,%d) in %s", id, a.rt.s, a.name))
	}
}

// blockRecip returns ⌈2^64/blk⌉, the multiplier that turns ix/blk into
// the high word of one multiply, or 0 when the division must stay. With
// e = recip - 2^64/blk in [0, 1), the high word is floor(ix/blk +
// ix*e/2^64); the error term is below 2^-32 for ix < 2^32 and cannot carry
// the quotient's fraction (at most 1 - 1/blk) over 1 while blk <= 2^32 —
// both hold for every in-range index of an array of at most 2^32
// elements. Larger arrays keep the division, and so does blk == 1, whose
// reciprocal does not fit a word.
func blockRecip(n, blk int64) uint64 {
	if n > 1<<32 || blk < 2 {
		return 0
	}
	return math.MaxUint64/uint64(blk) + 1
}

// blockKey is the block scheme's owner key: ix / blk, by one multiply
// when recip (see blockRecip) is set. A 64-bit divide costs tens of cycles
// and does not pipeline; the multiply is what the paper's id optimization
// ("compute the sort keys arithmetically") assumes.
func blockKey(ix, blk int64, recip uint64) int32 {
	if recip == 0 {
		return int32(ix / blk)
	}
	hi, _ := bits.Mul64(uint64(ix), recip)
	return int32(hi)
}

// ThreadCover returns a half-open range assigned to thread id such that
// the s ranges exactly cover [0, n) disjointly. For the block scheme it
// is the owned range; for scattered schemes it is an even Span cover —
// not ownership, but any disjoint cover is valid for the two uses that
// need one: dividing per-element work across threads inside an SPMD
// region, and the checkpoint copy window (which sits between two full
// barriers, so which thread copies which slab is immaterial).
func (a *SharedArray) ThreadCover(id int) (lo, hi int64) {
	a.checkThread("ThreadCover", id)
	if a.part.Kind == SchemeBlock {
		return a.localRange(id)
	}
	return Span(a.n, a.rt.s, id)
}

// ServeView returns the slice a serving thread gathers/scatters against
// and the global index of its first element. Block owners get their
// contiguous owned window; scattered owners get the whole array (base 0,
// so global indices are used directly) and touch only their own
// elements, which stay disjoint across concurrent servers.
func (a *SharedArray) ServeView(id int) (local []int64, base int64) {
	a.checkThread("ServeView", id)
	if a.part.Kind == SchemeBlock {
		lo, hi := a.localRange(id)
		return a.data[lo:hi], lo
	}
	return a.data, 0
}

// buildHubTable fills the hub scheme's owner table: the h-th valid hub
// (in spec order, in-range, first occurrence) goes to thread h%s, and the
// non-hub tail is dealt by ascending index into the same almost-equal
// shares Span produces, in one O(n) pass.
func (a *SharedArray) buildHubTable() {
	s := a.rt.s
	n := a.n
	tab := make([]int32, n)
	for i := range tab {
		tab[i] = -1
	}
	hubs := 0
	for _, h := range a.part.Hubs {
		if h >= n || tab[h] >= 0 {
			continue // out of this array's range, or listed twice
		}
		tab[h] = int32(hubs % s)
		hubs++
	}
	// Tail: walk non-hub indices in ascending order, assigning thread id
	// while its Span share of the tail lasts.
	tail := n - int64(hubs)
	id := 0
	_, quota := Span(tail, s, 0)
	filled := int64(0)
	for i := int64(0); i < n; i++ {
		if tab[i] >= 0 {
			continue
		}
		for filled >= quota {
			id++
			_, quota = Span(tail, s, id)
		}
		tab[i] = int32(id)
		filled++
	}
	a.ownerTab = tab
}
