package collective

import (
	"pgasgraph/internal/pgas"
)

// GetDPair gathers from two equally-distributed shared arrays at the same
// indices in one collective: out1[j] = d1[indices[j]], out2[j] =
// d2[indices[j]]. Pointer-jumping kernels fetch S[S[i]] and R[S[i]] at
// identical indices every round; fusing the calls halves the grouping
// work and the SMatrix/PMatrix setup traffic — the all-to-all burst that
// dominates at high thread counts (§VI). A beyond-paper optimization,
// measured by BenchmarkAblationFusedPair. It is the engine's fused pair
// op: one grouping and one setup serve both gathers (offload does not
// apply: two arrays cannot share one pinned value).
//
// d1 and d2 must have the same length (hence the same distribution).
func (c *Comm) GetDPair(th *pgas.Thread, d1, d2 *pgas.SharedArray, indices, out1, out2 []int64, opts *Options, cache *IDCache) {
	if len(out1) != len(indices) || len(out2) != len(indices) {
		panic("collective: GetDPair output length mismatch")
	}
	if d1.Len() != d2.Len() {
		panic("collective: GetDPair arrays must share a distribution")
	}
	opts = orDefaults(opts)
	c.traced("GetDPair", th, c.splan, func() {
		c.splan.planInto("GetDPair", th, d1, indices, opts, cache, false, false, nil)
		c.exec(th, c.splan, opGetDPair, d1, d2, nil, out1, out2)
	})
}
