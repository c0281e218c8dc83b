package cc

import (
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sim"
)

// testConfig returns a small cluster configuration for tests.
func testConfig(nodes, tpn int) machine.Config {
	cfg := machine.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	return cfg
}

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	rt, err := pgas.New(testConfig(nodes, tpn))
	if err != nil {
		t.Fatalf("pgas.New: %v", err)
	}
	return rt
}

// kernels under test, uniformly invoked.
type kernel struct {
	name string
	run  func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result
}

func kernels() []kernel {
	return []kernel{
		{"naive", func(rt *pgas.Runtime, g *graph.Graph, _ *Options) *Result {
			return Naive(rt, g)
		}},
		{"coalesced", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return Coalesced(rt, collective.NewComm(rt), g, opts)
		}},
		{"sv", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return SV(rt, collective.NewComm(rt), g, opts)
		}},
		{"fastsv", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return FastSV(rt, collective.NewComm(rt), g, opts)
		}},
		{"lt-prs", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return liuTarjan(rt, collective.NewComm(rt), g, ltPRS, opts)
		}},
		{"lt-pus", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return liuTarjan(rt, collective.NewComm(rt), g, ltPUS, opts)
		}},
		{"lt-ers", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
			return liuTarjan(rt, collective.NewComm(rt), g, ltERS, opts)
		}},
	}
}

func checkAgainstSequential(t *testing.T, g *graph.Graph, got *Result) {
	t.Helper()
	want := seq.CC(g)
	if !seq.SamePartition(want, got.Labels) {
		t.Fatalf("partition mismatch on %v: got %d components, want %d",
			g, got.Components, seq.CountComponents(want))
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"no-vertices":  &graph.Graph{},
		"empty":        graph.Empty(16),
		"single":       graph.Empty(1),
		"path":         graph.Path(40),
		"reverse-path": graph.ReverseIdentity(40),
		"cycle":        graph.Cycle(33),
		"star":         graph.Star(50),
		"complete":     graph.Complete(12),
		"grid":         graph.Grid(7, 9),
		"disjoint": graph.Disjoint(
			graph.Path(10), graph.Cycle(5), graph.Star(8), graph.Empty(4)),
		"random":       graph.Random(200, 500, 42),
		"random-dense": graph.Random(60, 1200, 7),
		"hybrid":       graph.Hybrid(300, 900, 11),
		"rmat":         graph.PermuteVertices(graph.RMAT(8, 400, 0.57, 0.19, 0.19, 0.05, 3), 9),
	}
}

func TestKernelsMatchSequential(t *testing.T) {
	configs := []struct{ nodes, tpn int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 2}, {3, 3},
	}
	optVariants := map[string]*Options{
		"base":      {},
		"optimized": {Col: collective.Optimized(4), Compact: true},
	}
	for name, g := range testGraphs() {
		for _, cfg := range configs {
			for _, k := range kernels() {
				for optName, opts := range optVariants {
					t.Run(name+"/"+k.name+"/"+optName, func(t *testing.T) {
						rt := newRuntime(t, cfg.nodes, cfg.tpn)
						res := k.run(rt, g, opts)
						checkAgainstSequential(t, g, res)
					})
				}
			}
		}
	}
}

func TestSimTimePositive(t *testing.T) {
	g := graph.Random(100, 300, 1)
	rt := newRuntime(t, 2, 2)
	res := Coalesced(rt, collective.NewComm(rt), g, &Options{Col: collective.Optimized(2), Compact: true})
	if res.Run.SimNS <= 0 {
		t.Fatalf("simulated time %v, want > 0", res.Run.SimNS)
	}
	if res.Run.Messages == 0 {
		t.Fatal("expected network messages on a 2-node run")
	}
}

func TestMergeCGMMatchesSequential(t *testing.T) {
	for name, g := range testGraphs() {
		for _, cfg := range []struct{ nodes, tpn int }{{1, 1}, {4, 1}, {4, 2}, {3, 3}} {
			t.Run(name+"/mergecgm", func(t *testing.T) {
				rt := newRuntime(t, cfg.nodes, cfg.tpn)
				checkAgainstSequential(t, g, MergeCGM(rt, g))
			})
		}
	}
}

func TestMergeCGMRounds(t *testing.T) {
	rt := newRuntime(t, 4, 2) // s = 8 -> 3 merge rounds
	res := MergeCGM(rt, graph.Random(200, 600, 1))
	if res.Iterations != 3 {
		t.Fatalf("merge rounds = %d, want 3", res.Iterations)
	}
}

func TestMergeCGMIdleTail(t *testing.T) {
	// The reduction leaves most threads idle: wait time must be visible.
	rt := newRuntime(t, 4, 2)
	res := MergeCGM(rt, graph.Random(5000, 20000, 2))
	if res.Run.SumByCategory[sim.CatWait] <= 0 {
		t.Fatal("merge-based CC showed no idle time")
	}
}

func TestKernelsOnStructuredTopologies(t *testing.T) {
	// High-diameter and small-world inputs: iteration counts must stay
	// poly-log (the paper's topology-independence claim).
	graphs := map[string]*graph.Graph{
		"torus":      graph.Torus3D(6, 0),
		"smallworld": graph.SmallWorld(400, 6, 0.05, 3),
		"grid-big":   graph.Grid(20, 20),
	}
	opts := &Options{Col: collective.Optimized(2), Compact: true}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			rt := newRuntime(t, 4, 2)
			res := Coalesced(rt, collective.NewComm(rt), g, opts)
			checkAgainstSequential(t, g, res)
			if res.Iterations > 24 {
				t.Fatalf("CC took %d iterations on %s — not poly-log", res.Iterations, name)
			}
		})
	}
}

func TestSVCompactMatchesNoCompact(t *testing.T) {
	g := graph.Random(300, 900, 21)
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	with := SV(rt, comm, g, &Options{Col: collective.Optimized(2), Compact: true})
	without := SV(rt, comm, g, &Options{Col: collective.Optimized(2)})
	if !seq.SamePartition(with.Labels, without.Labels) {
		t.Fatal("compact changed SV's answer")
	}
	if with.Run.SimNS > without.Run.SimNS {
		t.Fatal("compact made SV slower")
	}
}
