package experiments

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
)

// The row below is recorded in BENCH_collectives.json but not printed, so
// it lays out no table. It runs fixed-size inputs — the two skewed graph
// families, hybrid scale-free and RMAT — whatever the scale.

func skewedInputs(c Config) []Point {
	hyb, rmat := c.point("hybrid"), c.point("rmat")
	hyb.Graph = graph.Hybrid(1<<12, 1<<14, c.Seed)
	rmat.Graph = graph.RMAT(12, 1<<14, 0.45, 0.25, 0.15, 0.15, c.Seed)
	return []Point{hyb, rmat}
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
	claims: []claim{
		{name: "SV over FastSV rounds on rmat", bound: 1, strict: true, got: rounds("rmat/sv", "rmat/fastsv")},
		{name: "SV over FastSV rounds on hybrid", bound: 1, got: rounds("hybrid/sv", "hybrid/fastsv")}},
}

// rounds is the round count at the point labelled num over that at den.
func rounds(num, den string) func(*view) float64 {
	return func(v *view) float64 { return levels(v.of(num), "cc") / levels(v.of(den), "cc") }
}
