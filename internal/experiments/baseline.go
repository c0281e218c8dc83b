package experiments

import (
	"fmt"

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
