package graph

import (
	"testing"
)

func TestValidate(t *testing.T) {
	for _, good := range []*Graph{{N: 3, U: []int32{0, 1}, V: []int32{1, 2}}, {N: 1 << 31}} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid graph rejected: %v", err)
		}
	}
	bad := []*Graph{
		{N: -1},
		{N: 2, U: []int32{0}, V: []int32{}},
		{N: 2, U: []int32{0}, V: []int32{2}},
		{N: 2, U: []int32{-1}, V: []int32{0}},
		{N: 2, U: []int32{0}, V: []int32{1}, W: []uint32{1, 2}},
		{N: 1<<31 + 1}, // vertex ids past int32
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := &Graph{N: 3, U: []int32{0}, V: []int32{1}, W: []uint32{7}}
	c := g.Clone()
	c.U[0] = 2
	c.W[0] = 9
	if g.U[0] != 0 || g.W[0] != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestDegrees(t *testing.T) {
	g := Star(5)
	d := g.Degrees()
	if d[0] != 4 {
		t.Fatalf("star center degree %d, want 4", d[0])
	}
	for i := 1; i < 5; i++ {
		if d[i] != 1 {
			t.Fatalf("leaf %d degree %d, want 1", i, d[i])
		}
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree %d, want 4", g.MaxDegree())
	}
}

func TestSpecialGraphCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int64
	}{
		{"path", Path(5), 5, 4},
		{"path1", Path(1), 1, 0},
		{"path0", Path(0), 0, 0},
		{"cycle", Cycle(5), 5, 5},
		{"star", Star(6), 6, 5},
		{"complete", Complete(5), 5, 10},
		{"grid", Grid(3, 4), 12, 17},
		{"empty", Empty(9), 9, 0},
		{"reverse", ReverseIdentity(5), 5, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if c.g.N != c.n || c.g.M() != c.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", c.g.N, c.g.M(), c.n, c.m)
			}
		})
	}
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Path(3), Cycle(4), Empty(2))
	if g.N != 9 {
		t.Fatalf("N = %d, want 9", g.N)
	}
	if g.M() != 2+4 {
		t.Fatalf("M = %d, want 6", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// No edge may cross the component boundaries 0-2 / 3-6 / 7-8.
	region := func(v int32) int {
		switch {
		case v < 3:
			return 0
		case v < 7:
			return 1
		default:
			return 2
		}
	}
	for i := range g.U {
		if region(g.U[i]) != region(g.V[i]) {
			t.Fatalf("edge (%d,%d) crosses regions", g.U[i], g.V[i])
		}
	}
}

func TestDisjointWeightedMix(t *testing.T) {
	w := WithRandomWeights(Path(3), 1)
	g := Disjoint(w, Path(2))
	if !g.Weighted() {
		t.Fatal("disjoint union with a weighted part must be weighted")
	}
	if len(g.W) != int(g.M()) {
		t.Fatalf("weight count %d != m %d", len(g.W), g.M())
	}
}

func TestCyclePanicsSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

func TestBuildCSR(t *testing.T) {
	g := &Graph{N: 4, U: []int32{0, 1, 0}, V: []int32{1, 2, 3}, W: []uint32{5, 6, 7}}
	c := BuildCSR(g)
	if c.Offs[4] != 6 {
		t.Fatalf("total adjacency %d, want 6", c.Offs[4])
	}
	if c.Degree(0) != 2 || c.Degree(1) != 2 || c.Degree(2) != 1 || c.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %v", c.Offs)
	}
	// Vertex 0's neighbors are {1, 3} with weights {5, 7}.
	nb := c.Neighbors(0)
	seen := map[int32]uint32{}
	for i, v := range nb {
		seen[v] = c.WAdj[c.Offs[0]+int64(i)]
	}
	if seen[1] != 5 || seen[3] != 7 {
		t.Fatalf("neighbor weights wrong: %v", seen)
	}
	// EdgeID round trip: every adjacency entry references its edge.
	for v := int64(0); v < c.N; v++ {
		for p := c.Offs[v]; p < c.Offs[v+1]; p++ {
			e := c.EdgeID[p]
			u, w := g.U[e], g.V[e]
			if int64(u) != v && int64(w) != v {
				t.Fatalf("edge id %d not incident to %d", e, v)
			}
		}
	}
}

func TestCSRSelfLoop(t *testing.T) {
	g := &Graph{N: 2, U: []int32{0}, V: []int32{0}}
	c := BuildCSR(g)
	if c.Degree(0) != 2 {
		t.Fatalf("self-loop degree %d, want 2", c.Degree(0))
	}
	if g.SelfLoops() != 1 {
		t.Fatalf("SelfLoops %d, want 1", g.SelfLoops())
	}
}

// MaxDegree returns the maximum vertex degree (0 for edgeless graphs).
func (g *Graph) MaxDegree() int64 {
	var mx int64
	for _, d := range g.Degrees() {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Degree returns the degree of vertex v in the CSR view.
func (c *CSR) Degree(v int64) int64 {
	return c.Offs[v+1] - c.Offs[v]
}
