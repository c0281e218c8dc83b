package pgasgraph

import (
	"slices"
	"testing"
)

// The per-kernel tests below run through Cluster.Run like every caller;
// run checks each result against the kernel's sequential oracle (the
// union-find, chain-walk, queue-BFS and Dijkstra comparisons these tests
// used to spell out by hand), so what is left in each body is what the
// oracle does not say.

func TestSpanningForestAPI(t *testing.T) {
	g := RandomGraph(400, 1200, 17)
	sf := run(t, smallCluster(t), optimized("spanning-forest", g, 2))
	comps := CountComponents(SequentialCC(g))
	if sf.Components != comps || int64(len(sf.Edges)) != g.N-comps {
		t.Fatalf("forest has %d edges over %d components, want %d over %d", len(sf.Edges), sf.Components, g.N-comps, comps)
	}
}

func TestListRankAPI(t *testing.T) {
	c := smallCluster(t)
	l := RandomChainList(500, 3)
	w := run(t, c, KernelSpec{Kernel: "listrank/wyllie", List: l, Col: OptimizedCollectives(2)})
	g := run(t, c, KernelSpec{Kernel: "listrank/cgm", List: l, Col: OptimizedCollectives(2)})
	if !slices.Equal(w.Detail.(*ListRankResult).Ranks, g.Detail.(*ListRankResult).Ranks) {
		t.Fatal("Wyllie and CGM ranks differ")
	}
	if w.Run.SimNS <= 0 || g.Run.SimNS <= 0 {
		t.Fatal("missing run stats")
	}
}

func TestChainsListAPI(t *testing.T) {
	l := ChainsList(100, 4, 9)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	res := run(t, smallCluster(t), KernelSpec{Kernel: "listrank/wyllie", List: l})
	ranks := res.Detail.(*ListRankResult).Ranks
	tails := 0
	for _, r := range ranks {
		if r == 0 {
			tails++
		}
	}
	if len(ranks) != 100 || tails != 4 {
		t.Fatalf("%d ranks with %d tails, want 100 with 4", len(ranks), tails)
	}
}

func TestBFSAPI(t *testing.T) {
	c := smallCluster(t)
	spec := optimized("bfs/coalesced", HybridGraph(600, 1800, 4), 2)
	spec.Src = 3
	res := run(t, c, spec)
	if res.Dist[3] != 0 || res.Iterations != res.Detail.(*BFSResult).Levels {
		t.Fatalf("dist[src] = %d, iterations %d", res.Dist[3], res.Iterations)
	}
}

func TestBFSUnreachedConstant(t *testing.T) {
	res := run(t, smallCluster(t), KernelSpec{Kernel: "bfs/coalesced", Graph: Disjoint2ForTest()})
	if res.Dist[2] != BFSUnreached {
		t.Fatalf("unreachable vertex distance %d", res.Dist[2])
	}
}

// Disjoint2ForTest returns two isolated edges through the public Graph type.
func Disjoint2ForTest() *Graph {
	return &Graph{N: 4, U: []int32{0, 2}, V: []int32{1, 3}}
}

func TestEulerTourAPI(t *testing.T) {
	g := RandomGraph(300, 900, 21)
	res := run(t, smallCluster(t), optimized("spanning-forest", g, 2))
	sf := res.Detail.(*SpanningForest)
	if !slices.Equal(sf.Edges, res.Edges) || !slices.Equal(sf.CC.Labels, res.Labels) || sf.Run != res.Run {
		t.Fatal("uniform Edges, Labels or Run differ from the forest Detail")
	}
	// Every root is its component's label; every other vertex has a parent.
	for v := int64(0); v < g.N; v++ {
		if (res.Parent[v] == -1) != (res.Labels[v] == v) {
			t.Fatalf("vertex %d: parent %d under label %d", v, res.Parent[v], res.Labels[v])
		}
	}
}

func TestCCMergeAPI(t *testing.T) {
	g := RandomGraph(400, 1000, 8)
	res := run(t, smallCluster(t), KernelSpec{Kernel: "cc/merge-cgm", Graph: g})
	if !slices.Equal(res.Labels, SequentialCC(g)) {
		t.Fatal("merge CC labels are not the canonical minima")
	}
}

func TestShortestPathsAPI(t *testing.T) {
	spec := optimized("sssp/delta-stepping", WithRandomWeights(RandomGraph(300, 900, 41), 42), 2)
	spec.Src = 5
	res := run(t, smallCluster(t), spec)
	if res.Dist[5] != 0 || res.Detail.(*SSSPResult).Relaxations <= 0 {
		t.Fatalf("dist[src] = %d, %d relaxations", res.Dist[5], res.Detail.(*SSSPResult).Relaxations)
	}
}
