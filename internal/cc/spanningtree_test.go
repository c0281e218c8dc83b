package cc

import (
	"slices"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/trace"
	"pgasgraph/internal/unionfind"
)

// checkSpanningForest verifies sf's edges form a spanning forest of g.
func checkSpanningForest(t *testing.T, g *graph.Graph, sf *SpanningForest) {
	t.Helper()
	ds := unionfind.New(g.N)
	for _, e := range sf.Edges {
		if e < 0 || e >= g.M() {
			t.Fatalf("invalid edge id %d", e)
		}
		if !ds.Union(g.U[e], g.V[e]) {
			t.Fatalf("edge %d (%d,%d) creates a cycle", e, g.U[e], g.V[e])
		}
	}
	comps := seq.CountComponents(seq.CC(g))
	if int64(len(sf.Edges)) != g.N-comps {
		t.Fatalf("forest has %d edges, want n - #components = %d", len(sf.Edges), g.N-comps)
	}
	// The forest must induce exactly g's connectivity.
	labels := make([]int64, g.N)
	for v := range labels {
		labels[v] = int64(ds.Find(int32(v)))
	}
	if !seq.SamePartition(seq.Canonical(labels), seq.CC(g)) {
		t.Fatal("forest connectivity differs from the graph's")
	}
	// And the CC result that rode along must be correct too.
	checkAgainstSequential(t, g, sf.CC)
}

func TestSpanningTree(t *testing.T) {
	configs := []struct{ nodes, tpn int }{{1, 1}, {1, 4}, {4, 2}, {3, 3}}
	optVariants := map[string]*Options{
		"base":      {},
		"optimized": {Col: collective.Optimized(4), Compact: true},
	}
	for name, g := range testGraphs() {
		for _, cfg := range configs {
			for optName, opts := range optVariants {
				t.Run(name+"/"+optName, func(t *testing.T) {
					rt := newRuntime(t, cfg.nodes, cfg.tpn)
					sf := SpanningTree(rt, collective.NewComm(rt), g, opts)
					checkSpanningForest(t, g, sf)
				})
			}
		}
	}
}

func TestSpanningTreeDeterministic(t *testing.T) {
	g := graph.Random(300, 900, 5)
	opts := &Options{Col: collective.Optimized(2), Compact: true}
	rt1 := newRuntime(t, 4, 2)
	rt2 := newRuntime(t, 4, 2)
	a := SpanningTree(rt1, collective.NewComm(rt1), g, opts)
	b := SpanningTree(rt2, collective.NewComm(rt2), g, opts)
	// The (label, edge-id) election is deterministic, so the same
	// configuration must pick the same forest.
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("forest sizes differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	seen := map[int64]bool{}
	for _, e := range a.Edges {
		seen[e] = true
	}
	for _, e := range b.Edges {
		if !seen[e] {
			t.Fatalf("edge %d only in second run", e)
		}
	}
}

// TestSpanningTreeReusesItsPlan: a list that is not compacted never
// changes, so the endpoint gather builds one plan when it first gathers
// (round 1: round 0 copies) and re-executes it in every later round. No
// other collective of the kernel reuses a plan, so the reuse count is the
// whole statement.
func TestSpanningTreeReusesItsPlan(t *testing.T) {
	g := graph.Random(512, 2048, 3)
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	col := trace.NewCollector(rt.NumThreads())
	comm.SetTracer(col)
	sf := SpanningTree(rt, comm, g, &Options{Col: collective.Optimized(2)})
	checkSpanningForest(t, g, sf)
	if sf.CC.Iterations < 3 {
		t.Fatalf("%d iterations: the input never reaches a reused round", sf.CC.Iterations)
	}
	if got, want := col.PlanReuses(), int64(sf.CC.Iterations-2); got != want {
		t.Errorf("%d plan reuses per thread over %d iterations, want %d", got, sf.CC.Iterations, want)
	}
}

// packHook is the key EdgeList.Hooks writes for label and edge e.
func packHook(label, e int64) int64 { return label<<32 | e }

// TestSpanningTreeHookKeys pins the packed-key arithmetic at the guard's
// edge: the largest admissible label and edge id still order below the
// empty-bucket sentinel and unpack to themselves.
func TestSpanningTreeHookKeys(t *testing.T) {
	const maxLabel, maxEdge = int64(1)<<31 - 2, int64(1)<<32 - 1 // n < 2^31, m < 2^32
	for _, label := range []int64{0, 1, 1 << 30, maxLabel} {
		for _, e := range []int64{0, 1, maxEdge} {
			key := packHook(label, e)
			if key < 0 || key >= noHook {
				t.Errorf("packHook(%d, %d) = %d does not beat the sentinel %d", label, e, key, noHook)
			}
			if l, id := unpackHook(key); l != label || id != e {
				t.Errorf("unpackHook(packHook(%d, %d)) = %d, %d", label, e, l, id)
			}
		}
	}
	if a, b := packHook(5, maxEdge), packHook(6, 0); a >= b {
		t.Error("keys do not order by label first")
	}
}

// TestOneRootEndKeepsTheAnswer: on inputs with a giant component the last
// round's roots gather finds every kept pair inside the one tree rooted at
// 0 and empties the list instead of relabelling it for a hook scan that
// finds nothing (collective's TestOneRootEnd pins the list). The kernels
// that compact must still answer exactly as their uncompacted runs do:
// the same labels, the same forest edges and the same rounds.
func TestOneRootEndKeepsTheAnswer(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Random(2048, 8192, 7), graph.Hybrid(2048, 8192, 3), graph.Random(1024, 1200, 5)} {
		for _, geo := range [][2]int{{1, 4}, {4, 2}, {3, 3}} {
			for _, col := range []*collective.Options{collective.Base(), collective.Optimized(2)} {
				rt := newRuntime(t, geo[0], geo[1])
				run := func(compact bool) (*Result, *SpanningForest) {
					opts := &Options{Col: col, Compact: compact}
					return Coalesced(rt, collective.NewComm(rt), g, opts), SpanningTree(rt, collective.NewComm(rt), g, opts)
				}
				cc, sf := run(true)
				ccStatic, sfStatic := run(false)
				if !slices.Equal(cc.Labels, ccStatic.Labels) || cc.Iterations != ccStatic.Iterations {
					t.Errorf("n=%d %dx%d offload=%v: compacted Coalesced took %d rounds, uncompacted %d; labels equal: %v",
						g.N, geo[0], geo[1], col.Offload, cc.Iterations, ccStatic.Iterations, slices.Equal(cc.Labels, ccStatic.Labels))
				}
				edges, static := slices.Clone(sf.Edges), slices.Clone(sfStatic.Edges)
				slices.Sort(edges)
				slices.Sort(static)
				if !slices.Equal(edges, static) || !slices.Equal(sf.CC.Labels, sfStatic.CC.Labels) || sf.CC.Iterations != sfStatic.CC.Iterations {
					t.Errorf("n=%d %dx%d offload=%v: compacted SpanningTree took %d rounds, uncompacted %d; forests equal: %v",
						g.N, geo[0], geo[1], col.Offload, sf.CC.Iterations, sfStatic.CC.Iterations, slices.Equal(edges, static))
				}
				checkSpanningForest(t, g, sf)
			}
		}
	}
}
