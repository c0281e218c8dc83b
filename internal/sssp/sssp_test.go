package sssp

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

func newRuntime(t testing.TB, nodes, tpn int) *pgas.Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func distEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeqDijkstraKnown(t *testing.T) {
	// Path 0-1-2 with weights 5, 7.
	g := &graph.Graph{N: 3, U: []int32{0, 1}, V: []int32{1, 2}, W: []uint32{5, 7}}
	d := seqDijkstra(g, 0)
	if !distEqual(d, []int64{0, 5, 12}) {
		t.Fatalf("dist = %v", d)
	}
	// A shortcut: 0-2 direct with weight 20 loses; with weight 3 wins.
	g2 := &graph.Graph{N: 3, U: []int32{0, 1, 0}, V: []int32{1, 2, 2}, W: []uint32{5, 7, 3}}
	d = seqDijkstra(g2, 0)
	if d[2] != 3 {
		t.Fatalf("dist[2] = %d, want 3", d[2])
	}
	// Disconnected vertex unreached.
	g3 := graph.WithRandomWeights(graph.Disjoint(graph.Path(2), graph.Empty(1)), 1)
	d = seqDijkstra(g3, 0)
	if d[2] != Unreached {
		t.Fatalf("unreachable dist = %d", d[2])
	}
}

func TestSeqDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	g := graph.Random(300, 900, 4).Clone()
	g.W = make([]uint32, g.M())
	for i := range g.W {
		g.W[i] = 1
	}
	d := seqDijkstra(g, 0)
	want := bfs.SeqDistances(g, 0)
	if !distEqual(d, want) {
		t.Fatal("unit-weight Dijkstra differs from BFS")
	}
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":       graph.WithRandomWeights(graph.Path(40), 1),
		"cycle":      graph.WithRandomWeights(graph.Cycle(31), 2),
		"star":       graph.WithRandomWeights(graph.Star(50), 3),
		"grid":       graph.WithRandomWeights(graph.Grid(7, 8), 4),
		"random":     graph.WithRandomWeights(graph.Random(250, 800, 5), 6),
		"hybrid":     graph.WithRandomWeights(graph.Hybrid(200, 600, 7), 8),
		"disjoint":   graph.WithRandomWeights(graph.Disjoint(graph.Path(15), graph.Cycle(8)), 9),
		"smallworld": graph.WithRandomWeights(graph.SmallWorld(150, 4, 0.2, 10), 11),
	}
	geos := []struct{ nodes, tpn int }{{1, 2}, {4, 2}, {3, 3}}
	for name, g := range graphs {
		srcs := []int64{0, g.N / 2}
		for _, src := range srcs {
			want := seqDijkstra(g, src)
			for _, geo := range geos {
				t.Run(name, func(t *testing.T) {
					rt := newRuntime(t, geo.nodes, geo.tpn)
					res := DeltaStepping(rt, collective.NewComm(rt), g, src, 0, collective.Optimized(2))
					if !distEqual(res.Dist, want) {
						t.Fatalf("delta-stepping distances differ (src %d)", src)
					}
				})
			}
		}
	}
}

func TestDeltaSweep(t *testing.T) {
	// Correctness must be delta-independent.
	g := graph.WithRandomWeights(graph.Random(200, 700, 13), 14)
	want := seqDijkstra(g, 0)
	rt := newRuntime(t, 2, 2)
	comm := collective.NewComm(rt)
	for _, delta := range []int64{1, 10, 1000, 1 << 20, 1 << 32} {
		res := DeltaStepping(rt, comm, g, 0, delta, collective.Optimized(2))
		if !distEqual(res.Dist, want) {
			t.Fatalf("delta=%d: distances differ", delta)
		}
	}
}

func TestDeltaSteppingProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int64(nRaw%60) + 2
		maxM := n * (n - 1) / 2
		m := int64(dRaw) % (maxM + 1)
		g := graph.WithRandomWeights(graph.Random(n, m, seed), seed+1)
		src := int64(seed>>8) % n
		if src < 0 {
			src = -src
		}
		res := DeltaStepping(rt, comm, g, src, 0, collective.Optimized(2))
		return distEqual(res.Dist, seqDijkstra(g, src))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroWeights(t *testing.T) {
	g := graph.Path(10).Clone()
	g.W = make([]uint32, g.M())
	rt := newRuntime(t, 2, 2)
	res := DeltaStepping(rt, collective.NewComm(rt), g, 0, 0, nil)
	for v := int64(0); v < g.N; v++ {
		if res.Dist[v] != 0 {
			t.Fatalf("zero-weight path dist[%d] = %d", v, res.Dist[v])
		}
	}
}

func TestDefaultDelta(t *testing.T) {
	g := graph.WithRandomWeights(graph.Random(100, 400, 1), 2)
	if DefaultDelta(g) < 1 {
		t.Fatal("DefaultDelta below 1")
	}
	empty := &graph.Graph{N: 5, W: []uint32{}}
	if DefaultDelta(empty) != 1 {
		t.Fatal("edgeless DefaultDelta should be 1")
	}
}

func TestUnweightedPanics(t *testing.T) {
	rt := newRuntime(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unweighted input did not panic")
		}
	}()
	DeltaStepping(rt, collective.NewComm(rt), graph.Path(3), 0, 0, nil)
}

func TestStatsPopulated(t *testing.T) {
	g := graph.WithRandomWeights(graph.Random(300, 1000, 17), 18)
	rt := newRuntime(t, 4, 2)
	res := DeltaStepping(rt, collective.NewComm(rt), g, 0, 0, collective.Optimized(2))
	if res.Run.SimNS <= 0 || res.Buckets <= 0 || res.Relaxations <= 0 {
		t.Fatalf("stats missing: %+v", res)
	}
}

func TestDeltaSteppingUnitWeightsMatchBFS(t *testing.T) {
	g := graph.Random(400, 1200, 23).Clone()
	g.W = make([]uint32, g.M())
	for i := range g.W {
		g.W[i] = 1
	}
	rt := newRuntime(t, 4, 2)
	res := DeltaStepping(rt, collective.NewComm(rt), g, 0, 1, collective.Optimized(2))
	want := bfs.SeqDistances(g, 0)
	if !distEqual(res.Dist, want) {
		t.Fatal("unit-weight delta-stepping differs from BFS")
	}
}

// sentPairs counts the candidates DeltaStepping offers ExchangePairs.
type sentPairs struct{ n atomic.Int64 }

func (c *sentPairs) Collective(call collective.Call) {
	if call.Kind == "ExchangePairs" {
		c.n.Add(call.Offered)
	}
}

// TestOneExpansionPerDistance: a vertex improved twice in one relax sits
// in its bucket twice, and is expanded only at its first entry. The
// pinned relaxation and phase counts, and the candidate counts it must
// beat, were recorded when the second entry still expanded the vertex
// again at the same distance. Only those repeated candidates go: the
// first entries keep their order, so every relaxation lands as before.
func TestOneExpansionPerDistance(t *testing.T) {
	g := graph.WithRandomWeights(graph.Hybrid(1<<12, 1<<14, 7), 8)
	want := seqDijkstra(g, 0)
	rt := newRuntime(t, 2, 2)
	for _, tc := range []struct {
		delta       int64
		relaxations int64
		buckets     int
		sentBefore  int64
	}{
		{0, 7161, 18, 33250},
		{1 << 26, 7402, 64, 32806},
		{1 << 30, 7826, 6, 42714},
	} {
		comm := collective.NewComm(rt)
		var sent sentPairs
		comm.SetTracer(&sent)
		res := DeltaStepping(rt, comm, g, 0, tc.delta, collective.Optimized(2))
		if !distEqual(res.Dist, want) {
			t.Fatalf("delta=%d: distances differ", tc.delta)
		}
		if res.Relaxations != tc.relaxations || res.Buckets != tc.buckets {
			t.Errorf("delta=%d: %d relaxations in %d phases; pinned %d in %d", tc.delta, res.Relaxations, res.Buckets, tc.relaxations, tc.buckets)
		}
		if got := sent.n.Load(); got >= tc.sentBefore {
			t.Errorf("delta=%d: %d candidates sent, %d when a repeated entry expanded again", tc.delta, got, tc.sentBefore)
		}
	}
}
