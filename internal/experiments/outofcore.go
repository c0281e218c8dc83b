package experiments

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/report"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// expOutOfCore measures the paper's §VI closing argument: the cluster
// speedups of Figures 7-10 are measured on inputs that *fit one node*; once
// the input outgrows a node's memory, the single-node options are paging
// (catastrophic) or a redesigned external-memory algorithm (disk-streaming
// sorts), while the cluster's aggregate memory absorbs the input unchanged
// — "we expect even better speedups".
//
// The sweep grows the input past a modeled node memory sized so the
// crossover happens mid-sweep; the cluster's per-node share always fits.
type expOutOfCore struct {
	Cfg      Config
	MemBytes int64
	Rows     []expOutOfCoreRow
}

// expOutOfCoreRow is one input size's measurements.
type expOutOfCoreRow struct {
	N, M       int64
	Fits       bool
	ClusterNS  float64
	SMPNS      float64 // naive single node (pages once too large)
	ExternalNS float64 // redesigned external-memory baseline
}

// runOutOfCore executes the sweep.
func runOutOfCore(cfg Config) *expOutOfCore {
	cfg = cfg.WithDefaults()
	baseN := cfg.N(paper10M)
	// Node memory sized so the *randomly accessed* structure — the label
	// array D — spills once the input grows past ~1.5x baseN. (The edge
	// list streams sequentially and is out-of-core-friendly either way;
	// it is D's pointer chasing that pages.)
	memBytes := baseN * sim.ElemBytes * 3 / 2
	e := &expOutOfCore{Cfg: cfg, MemBytes: memBytes}

	tpn := 8
	if cfg.Base.ThreadsPerNode < tpn {
		tpn = cfg.Base.ThreadsPerNode
	}
	opts := &cc.Options{Col: collective.Optimized(2), Compact: true}

	for _, f := range []int64{1, 2, 4, 8} {
		n := baseN * f
		g := graph.Random(n, 4*n, cfg.Seed+uint64(f))
		workingSet := n * sim.ElemBytes

		// Cluster: 16 nodes, each holding 1/16th — always in memory.
		rtC := cfg.Runtime(cfg.Nodes, tpn)
		cl := cc.Coalesced(rtC, collective.NewComm(rtC), g, opts)

		// Single node with the modeled memory: the naive kernel pages.
		smpCfg := cfg.Machine(1, cfg.Base.ThreadsPerNode)
		smpCfg.NodeMemoryBytes = memBytes
		rtS, err := pgas.New(smpCfg)
		if err != nil {
			panic(err)
		}
		smp := cc.Naive(rtS, g)

		// Redesigned external-memory single-node baseline.
		seqCfg := cfg.Machine(1, 1)
		seqCfg.NodeMemoryBytes = memBytes
		_, extNS := seq.CCExternalTimed(g, sim.NewModel(seqCfg), memBytes)

		e.Rows = append(e.Rows, expOutOfCoreRow{
			N:          n,
			M:          g.M(),
			Fits:       workingSet <= memBytes,
			ClusterNS:  cl.Run.SimNS,
			SMPNS:      smp.Run.SimNS,
			ExternalNS: extNS,
		})
	}
	return e
}

// Table renders the sweep.
func (e *expOutOfCore) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Out-of-core crossover (§VI closing argument) — node memory %d MB; simulated ms",
			e.MemBytes>>20),
		"n", "m", "fits node?", "cluster CC", "SMP (paging)", "external-memory", "cluster speedup")
	for _, r := range e.Rows {
		best := r.SMPNS
		if r.ExternalNS < best {
			best = r.ExternalNS
		}
		t.AddRow(report.Count(r.N), report.Count(r.M),
			fmt.Sprint(r.Fits),
			report.MS(r.ClusterNS), report.MS(r.SMPNS), report.MS(r.ExternalNS),
			report.Ratio(best/r.ClusterNS))
	}
	t.AddNote("past the memory boundary the single node pages or restructures around the disk;")
	t.AddNote("the cluster's aggregate memory absorbs the input unchanged — the paper's expected widening speedup")
	return t
}

// CheckShape asserts the crossover.
func (e *expOutOfCore) CheckShape() error {
	if len(e.Rows) < 3 {
		return fmt.Errorf("outofcore: only %d rows", len(e.Rows))
	}
	var inMem, outMem *expOutOfCoreRow
	for i := range e.Rows {
		if e.Rows[i].Fits && inMem == nil {
			inMem = &e.Rows[i]
		}
		if !e.Rows[i].Fits {
			outMem = &e.Rows[i]
		}
	}
	if inMem == nil || outMem == nil {
		return fmt.Errorf("outofcore: sweep did not cross the memory boundary")
	}
	speedup := func(r *expOutOfCoreRow) float64 {
		best := r.SMPNS
		if r.ExternalNS < best {
			best = r.ExternalNS
		}
		return best / r.ClusterNS
	}
	if speedup(outMem) < 2*speedup(inMem) {
		return fmt.Errorf("outofcore: speedup did not widen past memory: %.1fx -> %.1fx",
			speedup(inMem), speedup(outMem))
	}
	// Paging must be worse than the redesigned external algorithm out of
	// core (that is why out-of-core techniques exist).
	if outMem.SMPNS < outMem.ExternalNS {
		return fmt.Errorf("outofcore: paging (%.0f) beat the external-memory algorithm (%.0f)",
			outMem.SMPNS, outMem.ExternalNS)
	}
	return nil
}
