package collective

import "pgasgraph/internal/pgas"

// RetainedWords reports what c keeps between calls, in 8-byte words:
// staging is the wire-only serve staging (stage, vals), total is
// everything the thread arenas and the one-shot scratch plan hold, int32
// buffers at half a word per element. The first-touch bitmaps (one bit
// per block element) are left out.
func (c *Comm) RetainedWords() (staging, total int64) {
	half := func(b []int32) int64 { return (int64(cap(b)) + 1) / 2 }
	for i := range c.ts {
		st := &c.ts[i]
		staging += int64(cap(st.stage) + cap(st.vals))
		total += int64(cap(st.recv)+cap(st.recv2)+cap(st.cursor)) +
			half(st.keys) + 4*int64(cap(st.segs))
		if st.comb != nil {
			total += 2 * combineSlots
		}
	}
	total += staging + int64(len(c.splan.smat)+len(c.splan.pmat))
	for i := range c.splan.pts {
		pt := &c.splan.pts[i]
		total += int64(cap(pt.req)+cap(pt.val)+cap(pt.offs)) +
			half(pt.pos) + half(pt.dropIdx) + half(pt.keeper)
	}
	return staging, total
}

// RootsLimit is k* for w kept labels (rootsLimit), priced from what el
// last gathered with. Compact counts up to RootsLimit of the list it is
// handed and asks the roots iff the count is within RootsLimit of the list
// it keeps.
func (el *EdgeList) RootsLimit(th *pgas.Thread, w int) int { return el.rootsLimit(th, w) }

// ForcePath sets the path of el's next Gather whatever its price: the
// endpoints, or the roots of labels — the kept pairs' labels in Ends
// order, which Compact holds on to only while it counts — recounted into
// the bitmap. It reports false, and leaves the endpoints, when the labels
// name more roots than the hook buffers hold.
func (el *EdgeList) ForcePath(roots bool, labels []int64) bool {
	el.viaRoots = false
	if !roots {
		return true
	}
	clear(el.seen)
	el.distinct = 0
	copy(el.Labels[:len(labels)], labels)
	for _, v := range labels {
		el.distinct += mark(el.seen, v)
	}
	el.viaRoots = el.distinct <= cap(el.HookIdx)
	return el.viaRoots
}
