package cc

import (
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/seq"
)

// TestExtendedHookCompactionSound pins the lt-ers edge-compaction bug:
// the extended rule's direct vertex update can migrate an endpoint into
// the winner's tree while the root hook is gated off, so parent equality
// on an edge does not imply its endpoints' old trees were merged. A
// compacting run that dropped such an edge stranded the loser's old tree
// with a stale label. Extended variants must therefore ignore Compact and
// still produce canonical component minima on every graph.
func TestExtendedHookCompactionSound(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, g := range []*graph.Graph{
			graph.SmallWorld(108, 2, 0.3, seed),
			graph.Hybrid(120, 120, seed),
		} {
			want := seq.CC(g)
			rt := newRuntime(t, 2, 4)
			res := liuTarjan(rt, collective.NewComm(rt), g, ltERS, &Options{Compact: true})
			for i := range want {
				if res.Labels[i] != want[i] {
					t.Fatalf("seed %d n=%d m=%d: lt-ers compact label[%d] = %d, oracle says %d",
						seed, g.N, g.M(), i, res.Labels[i], want[i])
				}
			}
		}
	}
}

// hookRules are the five labelRounds rules: the SV and FastSV kernels and
// the three test-only Liu-Tarjan rules.
func hookRules() []*hookRule {
	return []*hookRule{&svRule, &fastSVRule, ltPRS.rule(), ltPUS.rule(), ltERS.rule()}
}

// TestHookRulesSparseSweep is the regression wall for edge compaction in
// the hook-and-jump round on sparse inputs (m ≈ n, many small trees). A
// hook that writes under a non-root can move a subtree out of its tree, so
// an edge whose endpoints gather equal parents can still be the last
// witness joining two trees: FastSV with Compact once reported 158
// components on the pinned input below where there are 155, and cc/sv and
// cc/lt-pus mislabelled 5 each of the SmallWorld and Hybrid inputs. Every
// hook rule, with and without Compact, on three geometries must produce the
// oracle's canonical labels, and every rule must ignore Compact entirely:
// same rounds, same simulated time, same traffic as the uncompacted run.
func TestHookRulesSparseSweep(t *testing.T) {
	graphs := []*graph.Graph{graph.Random(1024, 1024, 7134611160154358618)}
	for seed := uint64(1); seed <= 60; seed++ {
		n := int64(96 + 8*seed)
		graphs = append(graphs, graph.Random(n, n, seed))
	}
	for seed := uint64(1); seed <= 30; seed++ {
		graphs = append(graphs, graph.SmallWorld(108, 2, 0.3, seed), graph.Hybrid(120, 120, seed))
	}
	geometries := [][2]int{{4, 2}, {3, 1}, {1, 4}}
	for gi, g := range graphs {
		want := seq.CC(g)
		for _, rule := range hookRules() {
			for _, geo := range geometries {
				var plain *Result
				for _, compact := range []bool{false, true} {
					rt := newRuntime(t, geo[0], geo[1])
					res := labelRounds(rt, collective.NewComm(rt), g, &Options{Col: collective.Optimized(2), Compact: compact}, rule)
					for i := range want {
						if res.Labels[i] != want[i] {
							t.Fatalf("graph %d (n=%d) %s compact=%v %dx%d: label[%d] = %d, oracle says %d (%d components, oracle %d)",
								gi, g.N, rule.name, compact, geo[0], geo[1], i, res.Labels[i], want[i],
								res.Components, seq.CountComponents(want))
						}
					}
					if !compact {
						plain = res
						continue
					}
					if res.Iterations != plain.Iterations || res.Run.SimNS != plain.Run.SimNS ||
						res.Run.Messages != plain.Run.Messages || res.Run.Bytes != plain.Run.Bytes {
						t.Fatalf("graph %d %s %dx%d: rule did not ignore Compact: %d rounds %.0f ns %d msgs %d B, uncompacted %d rounds %.0f ns %d msgs %d B",
							gi, rule.name, geo[0], geo[1], res.Iterations, res.Run.SimNS, res.Run.Messages, res.Run.Bytes,
							plain.Iterations, plain.Run.SimNS, plain.Run.Messages, plain.Run.Bytes)
					}
				}
			}
		}
	}
}
