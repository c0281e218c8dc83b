package seq

import (
	"pgasgraph/internal/graph"
	"pgasgraph/internal/sim"
)

// CCExternalTimed is the "out-of-core techniques" baseline of the paper's
// §VI closing argument: when the input no longer fits one node's memory, a
// competent single-node implementation switches to an external-memory
// connected-components algorithm (Chiang et al. style) built on repeated
// disk-streaming sorts rather than random access. The labels are computed
// exactly (same union-find as CC); the charge models the I/O-efficient
// algorithm: O(sort(m)) passes that stream the edge list from and to disk,
// with O(log(n/M)) contraction rounds.
//
// memBytes is the node's memory; inputs that fit are charged like CCTimed.
func CCExternalTimed(g *graph.Graph, model *sim.Model, memBytes int64) ([]int64, float64) {
	labels, touches := ccCounted(g)
	workingSet := (g.N + 2*g.M()) * sim.ElemBytes
	if workingSet <= memBytes {
		// Fits in memory: identical to the in-memory baseline.
		return labels, ccCharge(g, model, touches)
	}

	// External-memory regime: contraction rounds, each performing a
	// constant number of disk-streaming sorts of the (shrinking) edge
	// list. Rounds halve the vertex set until it fits memory.
	cfg := model.Config()
	var clk sim.Clock
	memElems := memBytes / sim.ElemBytes
	rounds := 0
	for n := g.N; n > memElems && rounds < 64; n /= 2 {
		rounds++
	}
	if rounds < 1 {
		rounds = 1
	}
	edgeBytes := float64(2 * g.M() * sim.ElemBytes)
	m := g.M()
	for r := 0; r < rounds; r++ {
		// Per round: ~3 streaming passes (sort by source, sort by
		// target, rewrite contracted edges), each reading and writing
		// the current edge list through disk.
		passes := 3.0
		clk.Charge(sim.CatIrregular, passes*2*edgeBytes/cfg.DiskBandwidth)
		// Seeks are amortized over large sequential runs.
		clk.Charge(sim.CatIrregular, passes*2*cfg.DiskLatency)
		// In-memory merge work for the resident fraction.
		clk.Charge(sim.CatWork, model.SeqScan(2*m))
		// Contraction shrinks the live edge list geometrically.
		edgeBytes /= 2
		m /= 2
	}
	// Final in-memory phase on the contracted instance.
	ns, _ := model.IrregularAccess(touches/int64(rounds)+1, memElems)
	clk.Charge(sim.CatIrregular, ns)
	// Relabeling pass: stream the label array once through disk.
	clk.Charge(sim.CatWork, float64(g.N*sim.ElemBytes)/cfg.DiskBandwidth)
	return labels, clk.NS
}
