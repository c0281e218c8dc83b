// Ownership: how a shared array's elements map onto threads.
//
// Every shared array has the blocked distribution the paper's codes
// declare (§III): thread i owns [i*blk, (i+1)*blk), blk = ceil(n/s), so
// Algorithm 1's top-level partition matches the data distribution. The
// backing slice is in global-index order, and an owner serves a contiguous
// window of it. A kernel that wants its labels spread over the owners lays
// them out itself, through positions (the label layout), on every
// transport.
package pgas

import (
	"math"
	"math/bits"
)

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

// blockKey is the owner key ix / blk, by one multiply when recip (see
// blockRecip) is set. A 64-bit divide costs tens of cycles and does not
// pipeline; the multiply is what the paper's id optimization ("compute the
// sort keys arithmetically") assumes.
func blockKey(ix, blk int64, recip uint64) int32 {
	if recip == 0 {
		return int32(ix / blk)
	}
	hi, _ := bits.Mul64(uint64(ix), recip)
	return int32(hi)
}

// localRange is thread id's owned range, without validation.
func (a *SharedArray) localRange(id int) (lo, hi int64) {
	lo = int64(id) * a.blk
	return min(lo, a.n), min(lo+a.blk, a.n)
}

// ThreadCover returns thread id's owned range [lo, hi). The s ranges cover
// [0, n) disjointly in thread order, which is what dividing per-element
// work across threads inside an SPMD region and the checkpoint copy window
// need.
func (a *SharedArray) ThreadCover(id int) (lo, hi int64) {
	a.checkThread("ThreadCover", id)
	return a.localRange(id)
}
