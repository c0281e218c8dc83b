package collective

// RetainedWords reports what c keeps between calls, in 8-byte words:
// staging is the wire-only serve staging (stage, inVal, vals), total is
// everything the thread arenas and the one-shot scratch plan hold, int32
// buffers at half a word per element. The first-touch bitmaps (one bit
// per block element) are left out.
func (c *Comm) RetainedWords() (staging, total int64) {
	half := func(b []int32) int64 { return (int64(cap(b)) + 1) / 2 }
	for i := range c.ts {
		st := &c.ts[i]
		staging += int64(cap(st.stage) + cap(st.inVal) + cap(st.vals))
		total += int64(cap(st.recv)+cap(st.recv2)+cap(st.packed)+cap(st.cursor)) +
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
