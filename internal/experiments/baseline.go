package experiments

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

// The two rows below are recorded in BENCH_collectives.json but not
// printed, so they lay out no table. They run fixed-size inputs — the two skewed graph
// families, hybrid scale-free and RMAT — whatever the scale.

func skewedInputs(c Config) []Point {
	hyb, rmat := c.point("hybrid"), c.point("rmat")
	hyb.Graph = graph.Hybrid(1<<12, 1<<14, c.Seed)
	rmat.Graph = graph.RMAT(12, 1<<14, 0.45, 0.25, 0.15, 0.15, c.Seed)
	return []Point{hyb, rmat}
}

// partition is the simulated cost of the collective hot path under each
// partition scheme on the skewed inputs: how ownership placement shifts
// remote traffic on skewed degree distributions.
var partition = Sweep{
	Name: "partition",
	Points: func(c Config, yield func(Point)) {
		for _, in := range skewedInputs(c) {
			for _, scheme := range []pgas.PartitionSpec{
				{Kind: pgas.SchemeBlock}, {Kind: pgas.SchemeCyclic}, {Kind: pgas.SchemeHub, Hubs: graph.Hubs(in.Graph, 64)},
			} {
				p := c.point(in.Label + "/" + scheme.Kind.String())
				p.Graph, p.Scheme, p.Col = in.Graph, scheme, collective.Optimized(4)
				yield(p)
			}
		}
	},
	series: []series{{name: "exchange", ref: exchange}},
}

// exchange is one GetD and one SetDMin on an identity array, each thread
// requesting both endpoints of its share of the edges (dealt round-robin):
// the access pattern every kernel generates.
func exchange(c Config, p *Point) float64 {
	rt := c.runtime(p)
	g, s := p.Graph, rt.NumThreads()
	d := rt.NewSharedArray("D", g.N)
	d.FillIdentity()
	idx, vals := make([][]int64, s), make([][]int64, s)
	for e := range g.U {
		t := e % s
		idx[t] = append(idx[t], int64(g.U[e]), int64(g.V[e]))
		vals[t] = append(vals[t], int64(g.V[e]), int64(g.U[e]))
	}
	caches := make([]collective.IDCache, s)
	comm := collective.NewComm(rt)
	return rt.Run(func(th *pgas.Thread) {
		comm.GetD(th, d, idx[th.ID], make([]int64, len(idx[th.ID])), p.Col, &caches[th.ID])
		comm.SetDMin(th, d, idx[th.ID], vals[th.ID], p.Col, &caches[th.ID])
	}).SimNS
}

// converge is the convergence round count and simulated time of the two
// hook-and-jump CC kernels, SV and FastSV, on the skewed inputs. Round
// counts are deterministic — label evolution under monotone minimum writes
// depends on neither geometry nor scheduling — and the shape is the
// headline claim: FastSV converges in strictly fewer rounds than
// Shiloach-Vishkin on RMAT, and never in more on hybrid.
var converge = Sweep{
	Name: "converge",
	Points: func(c Config, yield func(Point)) {
		for _, in := range skewedInputs(c) {
			for _, k := range []string{"sv", "fastsv"} {
				p := c.point(in.Label + "/" + k)
				p.Graph, p.Kernel, p.Col = in.Graph, "cc/"+k, collective.Optimized(4)
				yield(p)
			}
		}
	},
	series: []series{{name: "cc"}},
	check: func(v *view) error {
		rounds := func(label string) int { return v.of(label).get("cc").Iterations }
		if fs, sv := rounds("rmat/fastsv"), rounds("rmat/sv"); fs >= sv {
			return fmt.Errorf("FastSV took %d rounds on rmat, SV %d (want strictly fewer)", fs, sv)
		}
		if fs, sv := rounds("hybrid/fastsv"), rounds("hybrid/sv"); fs > sv {
			return fmt.Errorf("FastSV took %d rounds on hybrid, SV %d (want no more)", fs, sv)
		}
		return nil
	},
}
