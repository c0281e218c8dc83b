package bfs

import (
	"testing"
	"testing/quick"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
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

func TestSeqDistancesKnown(t *testing.T) {
	// Path 0-1-2-3 from source 1.
	d := SeqDistances(graph.Path(4), 1)
	want := []int64{1, 0, 1, 2}
	if !distEqual(d, want) {
		t.Fatalf("dist = %v, want %v", d, want)
	}
	// Disconnected piece stays unreached.
	d = SeqDistances(graph.Disjoint(graph.Path(2), graph.Path(2)), 0)
	if d[0] != 0 || d[1] != 1 || d[2] != Unreached || d[3] != Unreached {
		t.Fatalf("dist = %v", d)
	}
	// Star from the center.
	d = SeqDistances(graph.Star(5), 0)
	for i := 1; i < 5; i++ {
		if d[i] != 1 {
			t.Fatalf("star leaf %d at distance %d", i, d[i])
		}
	}
}

func TestDistributedMatchSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(50),
		"cycle":    graph.Cycle(41),
		"star":     graph.Star(60),
		"grid":     graph.Grid(8, 9),
		"complete": graph.Complete(12),
		"random":   graph.Random(300, 900, 5),
		"hybrid":   graph.Hybrid(250, 700, 6),
		"disjoint": graph.Disjoint(graph.Path(20), graph.Cycle(10), graph.Empty(5)),
		"single":   graph.Empty(1),
	}
	geos := []struct{ nodes, tpn int }{{1, 1}, {1, 4}, {4, 1}, {3, 2}}
	for name, g := range graphs {
		srcs := []int64{0}
		if g.N > 10 {
			srcs = append(srcs, g.N/2, g.N-1)
		}
		for _, src := range srcs {
			want := SeqDistances(g, src)
			for _, geo := range geos {
				t.Run(name, func(t *testing.T) {
					rt := newRuntime(t, geo.nodes, geo.tpn)
					co := Coalesced(rt, collective.NewComm(rt), g, src, collective.Optimized(2))
					if !distEqual(co.Dist, want) {
						t.Fatalf("coalesced distances differ from sequential (src %d)", src)
					}
				})
			}
		}
	}
}

func TestLevelsMatchEccentricity(t *testing.T) {
	// A path from one end: n-1 levels of expansion plus the empty round.
	g := graph.Path(32)
	rt := newRuntime(t, 2, 2)
	res := Coalesced(rt, collective.NewComm(rt), g, 0, nil)
	if res.Levels != 32 {
		t.Fatalf("path BFS levels = %d, want 32", res.Levels)
	}
}

func TestProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int64(nRaw%100) + 2
		maxM := n * (n - 1) / 2
		m := int64(dRaw) % (maxM + 1)
		g := graph.Random(n, m, seed)
		src := int64(seed) % n
		if src < 0 {
			src = -src
		}
		want := SeqDistances(g, src)
		res := Coalesced(rt, comm, g, src, collective.Optimized(3))
		return distEqual(res.Dist, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSOnTorus(t *testing.T) {
	g := graph.Torus3D(5, 0)
	want := SeqDistances(g, 0)
	rt := newRuntime(t, 4, 2)
	res := Coalesced(rt, collective.NewComm(rt), g, 0, collective.Optimized(2))
	if !distEqual(res.Dist, want) {
		t.Fatal("torus distances wrong")
	}
	// Torus eccentricity from a corner: 3 * floor(side/2) = 6.
	if res.Levels != 7 {
		t.Fatalf("torus BFS levels = %d, want eccentricity+1 = 7", res.Levels)
	}
}
