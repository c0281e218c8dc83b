package cc

import (
	"slices"
	"testing"
	"testing/quick"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/seq"
)

func checkBipartite(t *testing.T, g *graph.Graph, res *BipartiteResult) {
	t.Helper()
	// Component comes from the cover run; union-find on g is independent.
	if !slices.Equal(res.Component, seq.CC(g)) {
		t.Fatalf("Component = %v, want %v", res.Component, seq.CC(g))
	}
	want := seqBipartite(g)
	for r, bip := range want {
		if res.ComponentBipartite[r] != bip {
			t.Fatalf("component %d: bipartite = %v, want %v", r, res.ComponentBipartite[r], bip)
		}
	}
	// Sides must form a proper 2-coloring on bipartite components and be
	// -1 elsewhere.
	for i := range g.U {
		u, v := int64(g.U[i]), int64(g.V[i])
		if u == v {
			continue
		}
		if res.ComponentBipartite[res.Component[u]] {
			if res.Side[u] == res.Side[v] {
				t.Fatalf("edge (%d,%d) monochromatic in a bipartite component", u, v)
			}
			if res.Side[u] < 0 || res.Side[v] < 0 {
				t.Fatalf("bipartite component vertex uncolored")
			}
		}
	}
	for v := int64(0); v < g.N; v++ {
		if !res.ComponentBipartite[res.Component[v]] && res.Side[v] != -1 {
			t.Fatalf("vertex %d of a non-bipartite component has side %d", v, res.Side[v])
		}
	}
}

func TestBipartiteKnownShapes(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"path":       graph.Path(20),    // bipartite
		"even-cycle": graph.Cycle(8),    // bipartite
		"odd-cycle":  graph.Cycle(7),    // not
		"star":       graph.Star(9),     // bipartite
		"triangle":   graph.Cycle(3),    // not
		"complete4":  graph.Complete(4), // not
		"grid":       graph.Grid(5, 6),  // bipartite
		"empty":      graph.Empty(5),    // all singleton, bipartite
		"mixed":      graph.Disjoint(graph.Cycle(4), graph.Cycle(5), graph.Path(3)),
		"self-loop":  {N: 2, U: []int32{0, 0}, V: []int32{0, 1}},
	}
	for name, g := range shapes {
		for _, geo := range []struct{ nodes, tpn int }{{1, 2}, {4, 2}} {
			t.Run(name, func(t *testing.T) {
				rt := newRuntime(t, geo.nodes, geo.tpn)
				opts := &Options{Col: collective.Optimized(2), Compact: true}
				res := Bipartite(rt, collective.NewComm(rt), g, opts)
				checkBipartite(t, g, res)
			})
		}
	}
}

func TestBipartiteProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int64(nRaw%60) + 1
		maxM := n * (n - 1) / 2
		m := int64(dRaw) % (maxM + 1)
		g := graph.Random(n, m, seed)
		res := Bipartite(rt, comm, g, &Options{Col: collective.Optimized(2), Compact: true})
		want := seqBipartite(g)
		for r, bip := range want {
			if res.ComponentBipartite[r] != bip {
				return false
			}
		}
		return slices.Equal(res.Component, seq.CC(g))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartiteGridColoring(t *testing.T) {
	// A grid's 2-coloring is the checkerboard: side differs exactly when
	// the coordinate parity differs.
	g := graph.Grid(6, 7)
	rt := newRuntime(t, 2, 2)
	res := Bipartite(rt, collective.NewComm(rt), g, nil)
	base := res.Side[0]
	for r := int64(0); r < 6; r++ {
		for c := int64(0); c < 7; c++ {
			want := base
			if (r+c)%2 == 1 {
				want = 1 - base
			}
			if res.Side[r*7+c] != want {
				t.Fatalf("grid cell (%d,%d) side %d, want %d", r, c, res.Side[r*7+c], want)
			}
		}
	}
}

// TestVerifyBipartiteRejects: the oracle the registry row and the chaos
// battery run must refuse a flipped verdict, a missing one, and an extra one
// under a label that names no component.
func TestVerifyBipartiteRejects(t *testing.T) {
	g := graph.Disjoint(graph.Cycle(4), graph.Cycle(5)) // components 0 (bipartite) and 4 (not)
	rt := newRuntime(t, 2, 2)
	run := func() *BipartiteResult { return Bipartite(rt, collective.NewComm(rt), g, nil) }
	if err := VerifyBipartite(g, run()); err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(*BipartiteResult){
		"flipped verdict": func(r *BipartiteResult) { r.ComponentBipartite[4] = true },
		"missing verdict": func(r *BipartiteResult) { delete(r.ComponentBipartite, 0) },
		"extra verdict":   func(r *BipartiteResult) { r.ComponentBipartite[2] = true },
		"wrong label":     func(r *BipartiteResult) { r.Component[5] = 0 },
	} {
		res := run()
		spoil(res)
		if err := VerifyBipartite(g, res); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
