// Package sched implements the paper's Algorithm 1: recursive scheduling
// of the irregular parallel access C[i] = D[R[i]].
//
// The four phases — partition, group (count-sort requests by target
// block), access (serve one block at a time), permute (restore request
// order) — trade extra sequential passes for a working set reduced from
// |D| to |D|/W, converting cache misses into streaming traffic (§IV,
// equations 4-5).
//
// Access plus ChargeAccess is the form used inside the collectives: one
// recursion level over t' virtual blocks (the paper's "each thread
// simulates t' virtual threads", §IV.B) when the served block exceeds the
// cache, the data movement per peer segment and the simulated-time charge
// once per serve (AccessCost prices it). Gather is the two over one
// segment. The literally recursive Algorithm 1, the executable
// specification the tests hold Access to, is Reference in
// reference_test.go.
package sched

import (
	"fmt"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Grow64 returns buf resized to k elements, reusing the backing array
// when it is large enough. When a reallocation is needed and growths is
// non-nil, the counter is incremented — the single growth-accounting
// point shared by every arena in the system (the collective layer's
// per-thread scratch and plan-owned buffers), so allocation counting
// cannot diverge between private copies of the helper.
func Grow64(buf []int64, k int, growths *int64) []int64 {
	if cap(buf) < k {
		if growths != nil {
			*growths++
		}
		return make([]int64, k)
	}
	return buf[:k]
}

// Grow32 is Grow64 for int32 buffers.
func Grow32(buf []int32, k int, growths *int64) []int32 {
	if cap(buf) < k {
		if growths != nil {
			*growths++
		}
		return make([]int32, k)
	}
	return buf[:k]
}

// Op selects what Access does at each requested location: read it
// (OpGet), or write it under a combining rule.
type Op int

const (
	// OpSet stores the value (arbitrary concurrent write; the paper's
	// SetD semantics — among competing writers one wins).
	OpSet Op = iota
	// OpMin stores the value only if it is smaller (priority concurrent
	// write; the paper's SetDMin semantics).
	OpMin
	// OpMax stores the value only if it is larger. No kernel uses it; it
	// exists for the collective layer's mutation-sensitivity seam, which
	// flips SetDMin's combining rule to prove the verification harness
	// notices.
	OpMax
	// OpGet reads the location (the gather of GetD).
	OpGet
)

// Scratch is reusable first-touch tracking state for Gather and Access.
// The bitmap records which block locations have already been touched while the
// block is cache-warm, so the cost model charges misses for *distinct*
// locations only — repeated requests for a hot label (the paper's D[0])
// are cache hits, and a block read by several consecutive peer serves
// within one collective is loaded once, not once per peer (equation 5's
// n·L_M term). Callers that serve many requests against one warm block
// call Reset once, then pass the Scratch to every Access in the phase.
// Gather allows a nil *Scratch; it then tracks first touches for that
// single call only.
type Scratch struct {
	bitmap []uint64
	warmNB int64
}

// Reset sizes and clears the bitmap for a block of nb locations, marking
// the block cold.
func (s *Scratch) Reset(nb int64) {
	words := int((nb + 63) / 64)
	if cap(s.bitmap) < words {
		s.bitmap = make([]uint64, words)
	} else {
		s.bitmap = s.bitmap[:words]
		for i := range s.bitmap {
			s.bitmap[i] = 0
		}
	}
	s.warmNB = nb
}

// ensure prepares the bitmap for a block of nb locations, preserving warm
// state when the block size is unchanged.
func (s *Scratch) ensure(nb int64) {
	if s.warmNB == nb && s.bitmap != nil {
		return
	}
	s.Reset(nb)
}

// touch marks location ix, reporting whether it was a first touch.
func (s *Scratch) touch(ix int64) bool {
	w, b := ix>>6, uint(ix&63)
	if s.bitmap[w]&(1<<b) != 0 {
		return false
	}
	s.bitmap[w] |= 1 << b
	return true
}

// Gather reads out[j] = local[idx[j]] for block-local indices idx, charging
// simulated time to th. vt is the virtual-thread count t'.
//
// With vt <= 1, or a block that fits the cache, the access is direct:
// scattered reads over the whole block (distinct first touches pay
// compulsory misses, revisits pay the block's steady-state miss rate)
// plus a sequential write of out.
//
// With vt > 1 and a block the cache cannot hold, the cost follows the
// paper's virtual-thread simulation (§IV.B): each of the vt virtual blocks
// makes one selection pass over the request segment (the group phase —
// linear in vt, the rising arm of Figure 4's U), the access phase touches
// each distinct location once with revisit misses at the *sub-block* rate
// (the falling arm), and the output is written as a dense permutation with
// write-combining. The data result is identical to the direct loop, so the
// real movement is performed directly while the charges model the blocked
// schedule.
//
// localcpy selects private-pointer access to the shared array's local
// portion; without it every touch pays the shared-pointer overhead.
// Category attribution follows Figure 5: grouping is sort time, block
// access and value movement are copy time.
//
// Gather is one Access with OpGet followed by its ChargeAccess.
func Gather(th *pgas.Thread, local []int64, idx []int64, out []int64, vt int, localcpy bool, scr *Scratch) {
	if len(out) != len(idx) {
		panic("sched: Gather output length mismatch")
	}
	if len(idx) == 0 {
		return
	}
	if scr == nil {
		scr = &Scratch{}
	}
	ChargeAccess(th, int64(len(idx)), Access(local, idx, 0, out, OpGet, scr), int64(len(local)), vt, localcpy)
}

// Access is the data movement of one segment of a serve that may span
// several, charging nothing. With OpGet it gathers vals[j] =
// local[idx[j]-base]; with any other op it scatters local[idx[j]-base] op=
// vals[j] in idx order, so with OpSet later entries win ties (the serving
// thread is the sole writer of its block, so this is deterministic given
// the request order) and with OpMin the minimum wins regardless of order.
// idx may be a peer's grouped request list read in place — base
// translates its global indices to block-local ones. First touches are
// tracked in scr (sized for local on first use, and kept warm across the
// segments of one serve), and Access returns the segment's count of them:
// the serve charges its total request and first-touch counts with one
// ChargeAccess, exactly what Gather over the segments' concatenation
// charges.
func Access(local, idx []int64, base int64, vals []int64, op Op, scr *Scratch) (distinct int64) {
	scr.ensure(int64(len(local)))
	vals = vals[:len(idx)]
	switch op {
	case OpGet:
		for j, gix := range idx {
			ix := gix - base
			if scr.touch(ix) {
				distinct++
			}
			vals[j] = local[ix]
		}
	case OpSet:
		for j, gix := range idx {
			ix := gix - base
			if scr.touch(ix) {
				distinct++
			}
			local[ix] = vals[j]
		}
	case OpMin:
		for j, gix := range idx {
			ix := gix - base
			if scr.touch(ix) {
				distinct++
			}
			if vals[j] < local[ix] {
				local[ix] = vals[j]
			}
		}
	case OpMax:
		for j, gix := range idx {
			ix := gix - base
			if scr.touch(ix) {
				distinct++
			}
			if vals[j] > local[ix] {
				local[ix] = vals[j]
			}
		}
	default:
		panic(fmt.Sprintf("sched: unknown op %d", op))
	}
	return distinct
}

// ChargeAccess charges th one irregular access phase of k requests,
// distinct of them first touches, against a block of nb elements with vt
// virtual threads, as AccessCost prices it. An empty phase costs nothing.
func ChargeAccess(th *pgas.Thread, k, distinct, nb int64, vt int, localcpy bool) {
	sortNS, copyNS, misses := AccessCost(th.Runtime().Model(), k, distinct, nb, vt, localcpy)
	th.Clock.Charge(sim.CatSort, sortNS)
	th.Clock.Charge(sim.CatCopy, copyNS)
	th.Clock.CacheMisses += misses
}

// AccessCost prices one access phase of k requests, distinct of them
// first touches, against a block of nb elements: the group phase's sort
// time, the copy time (shared-pointer overhead, block access and output
// movement) and the cache misses. Blocking into vt virtual blocks applies
// only to a block the cache cannot hold: one that fits misses nothing on
// a revisit (MissFraction is 0), so t' selection passes and a dense
// permute would save no miss, and its access is direct. The rule reads
// only nb and the machine, so a caller can price a serve before it runs.
func AccessCost(m *sim.Model, k, distinct, nb int64, vt int, localcpy bool) (sortNS, copyNS, misses float64) {
	if k == 0 {
		return 0, 0, 0
	}
	if !localcpy {
		copyNS = m.SharedPtrAccess(k)
	}
	if vt <= 1 || int64(vt) > nb || m.MissFraction(nb) == 0 {
		ns, miss := m.IrregularAccessDistinct(k, distinct, nb)
		return 0, copyNS + ns + m.SeqScan(k), miss // sequential side of the transfer
	}
	// Group: one selection pass over the request keys per virtual block
	// (the paper's t'-virtual-processor simulation).
	sortNS = m.SelectionPasses(k, vt)
	// Access: compulsory misses once per distinct location; revisits at
	// the sub-block miss rate (zero once blk*8 fits the cache).
	access, accessMiss := m.IrregularAccessDistinct(k, distinct, (nb+int64(vt)-1)/int64(vt))
	// Output movement: a dense permutation with write-combining.
	perm, permMiss := m.DensePermute(k)
	return sortNS, copyNS + access + perm, accessMiss + permMiss
}
