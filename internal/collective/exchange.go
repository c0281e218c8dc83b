package collective

import (
	"pgasgraph/internal/pgas"
)

// Exchange is the personalized all-to-all underlying the paper's
// collectives, exposed directly: every thread contributes items routed to
// the owner of item's index under dist's blocked distribution (items are
// element indices, e.g. vertex ids), and receives the concatenation of
// everything routed to it. Level-synchronous algorithms (BFS frontier
// exchange) use it to push work to data owners with one coalesced message
// per thread pair. It is the engine's route op: grouping and matrix
// publish as usual, but the serve phase delivers the grouped items
// themselves instead of accessing a local block.
//
// All threads must call it (it contains barriers). The returned slice is
// valid until the thread's next collective call on this Comm.
func (c *Comm) Exchange(th *pgas.Thread, d *pgas.SharedArray, items []int64, opts *Options, cache *IDCache) []int64 {
	opts = orDefaults(opts)
	var out []int64
	c.traced("Exchange", th, c.splan, func() {
		c.splan.planInto("Exchange", th, d, items, opts, cache, false, false, nil)
		c.exec(th, c.splan, opExchange, d, nil, nil, nil, nil)
		st := &c.ts[th.ID]
		out = st.inVal[:st.routeTotal]
	})
	return out
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
	if len(values) != len(items) {
		panic("collective: ExchangePairs value length mismatch")
	}
	opts = orDefaults(opts)
	c.traced("ExchangePairs", th, c.splan, func() {
		c.splan.planInto("ExchangePairs", th, d, items, opts, cache, false, false, nil)
		c.exec(th, c.splan, opExchangePairs, d, nil, values, nil, nil)
		st := &c.ts[th.ID]
		recvItems, recvValues = st.local[:st.routeTotal], st.inVal[:st.routeTotal]
	})
	return recvItems, recvValues
}
