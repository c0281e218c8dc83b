package seq

import (
	"testing"
	"testing/quick"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/sim"
)

func TestCCKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		comps int64
	}{
		{"empty", graph.Empty(5), 5},
		{"path", graph.Path(10), 1},
		{"cycle", graph.Cycle(8), 1},
		{"star", graph.Star(9), 1},
		{"two comps", graph.Disjoint(graph.Path(4), graph.Cycle(3)), 2},
		{"mixed", graph.Disjoint(graph.Path(4), graph.Empty(3), graph.Star(5)), 5},
		{"none", graph.Empty(0), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			labels := CC(c.g)
			if got := CountComponents(labels); got != c.comps {
				t.Fatalf("components = %d, want %d", got, c.comps)
			}
		})
	}
}

func TestCCCanonicalLabels(t *testing.T) {
	// Canonical form: every vertex labeled with the smallest vertex id in
	// its component.
	g := graph.Disjoint(graph.Path(3), graph.Path(2))
	labels := CC(g)
	want := []int64{0, 0, 0, 3, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestCCMatchesBFS(t *testing.T) {
	check := func(seed uint64, nRaw uint8, dRaw uint8) bool {
		n := int64(nRaw%60) + 2
		maxM := n * (n - 1) / 2
		m := int64(dRaw) % (maxM + 1)
		g := graph.Random(n, m, seed)
		return SamePartition(CC(g), CCBFS(g))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamePartition(t *testing.T) {
	if !SamePartition([]int64{1, 1, 2}, []int64{9, 9, 7}) {
		t.Fatal("isomorphic labelings rejected")
	}
	if SamePartition([]int64{1, 1, 2}, []int64{1, 2, 2}) {
		t.Fatal("different partitions accepted")
	}
	if SamePartition([]int64{1, 2, 2}, []int64{1, 1, 1}) {
		t.Fatal("coarser partition accepted")
	}
	if SamePartition([]int64{1}, []int64{1, 2}) {
		t.Fatal("length mismatch accepted")
	}
	if !SamePartition([]int64{}, []int64{}) {
		t.Fatal("empty labelings rejected")
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	labels := []int64{5, 5, 9, 9, 5}
	c1 := Canonical(labels)
	c2 := Canonical(c1)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("Canonical not idempotent")
		}
	}
	want := []int64{0, 0, 2, 2, 0}
	for i := range want {
		if c1[i] != want[i] {
			t.Fatalf("canonical = %v, want %v", c1, want)
		}
	}
}

func weighted(g *graph.Graph, seed uint64) *graph.Graph {
	return graph.WithRandomWeights(g, seed)
}

func TestMSTAlgorithmsAgree(t *testing.T) {
	check := func(seed uint64, nRaw uint8, extra uint8) bool {
		n := int64(nRaw%40) + 2
		maxM := n * (n - 1) / 2
		m := int64(extra) % (maxM + 1)
		g := weighted(graph.Random(n, m, seed), seed+1)
		k := Kruskal(g)
		p := Prim(g)
		b := Boruvka(g)
		return k.Weight == p.Weight && k.Weight == b.Weight &&
			CheckForest(g, k) == nil && CheckForest(g, b) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKruskalKnown(t *testing.T) {
	// Path 0-1-2-3 with weights 3, 1, 2 plus a heavy chord (0,3).
	g := &graph.Graph{
		N: 4,
		U: []int32{0, 1, 2, 0},
		V: []int32{1, 2, 3, 3},
		W: []uint32{3, 1, 2, 100},
	}
	msf := Kruskal(g)
	if msf.Weight != 6 {
		t.Fatalf("weight = %d, want 6", msf.Weight)
	}
	if len(msf.Edges) != 3 {
		t.Fatalf("%d edges, want 3", len(msf.Edges))
	}
	for _, e := range msf.Edges {
		if e == 3 {
			t.Fatal("heavy chord selected")
		}
	}
}

func TestMSTAllEqualWeights(t *testing.T) {
	g := graph.Complete(8).Clone()
	g.W = make([]uint32, g.M())
	for i := range g.W {
		g.W[i] = 42
	}
	k, p, b := Kruskal(g), Prim(g), Boruvka(g)
	if k.Weight != 7*42 || p.Weight != k.Weight || b.Weight != k.Weight {
		t.Fatalf("weights %d %d %d, want %d", k.Weight, p.Weight, b.Weight, 7*42)
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := weighted(graph.Disjoint(graph.Cycle(4), graph.Path(3), graph.Empty(2)), 5)
	msf := Kruskal(g)
	// Forest edges = n - #components = 9 - 4 = 5.
	if len(msf.Edges) != 5 {
		t.Fatalf("%d forest edges, want 5", len(msf.Edges))
	}
	if err := CheckForest(g, msf); err != nil {
		t.Fatal(err)
	}
}

func TestCheckForestRejects(t *testing.T) {
	g := weighted(graph.Path(4), 1)
	good := Kruskal(g)
	bad := &MSF{Edges: append([]int64(nil), good.Edges...), Weight: good.Weight + 1}
	if CheckForest(g, bad) == nil {
		t.Fatal("wrong weight accepted")
	}
	cyc := &MSF{Edges: []int64{0, 0}, Weight: uint64(2 * g.W[0])}
	if CheckForest(g, cyc) == nil {
		t.Fatal("cycle accepted")
	}
	missing := &MSF{Edges: good.Edges[:1], Weight: uint64(g.W[good.Edges[0]])}
	if CheckForest(g, missing) == nil {
		t.Fatal("non-spanning forest accepted")
	}
	invalid := &MSF{Edges: []int64{99}, Weight: 0}
	if CheckForest(g, invalid) == nil {
		t.Fatal("invalid edge id accepted")
	}
}

func TestTimedVariantsChargeTime(t *testing.T) {
	model := sim.NewModel(machine.Sequential())
	g := graph.Random(500, 2000, 9)
	labels, ns := CCTimed(g, model)
	if ns <= 0 {
		t.Fatal("CCTimed charged no time")
	}
	if !SamePartition(labels, CC(g)) {
		t.Fatal("CCTimed labels differ from CC")
	}

	wg := weighted(g, 10)
	msf, ns2 := KruskalTimed(wg, model)
	if ns2 <= 0 {
		t.Fatal("KruskalTimed charged no time")
	}
	if msf.Weight != Kruskal(wg).Weight {
		t.Fatal("KruskalTimed weight differs")
	}
}

func TestTimedScalesWithInput(t *testing.T) {
	model := sim.NewModel(machine.Sequential())
	small := graph.Random(500, 1500, 1)
	large := graph.Random(5000, 15000, 1)
	_, nsSmall := CCTimed(small, model)
	_, nsLarge := CCTimed(large, model)
	if nsLarge <= nsSmall {
		t.Fatalf("10x input not slower: %.0f vs %.0f", nsLarge, nsSmall)
	}
}

// TestKruskalChargePinned pins Kruskal's charge: the merge sort is charged
// as ceil(lg m) streaming passes (the bottom-up widths 1, 2, 4, … below
// m), and KruskalTimed's simulated time on one fixed graph is bit-exact.
func TestKruskalChargePinned(t *testing.T) {
	for _, c := range []struct {
		m      int64
		passes int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1000, 10}, {1 << 20, 20}} {
		g := &graph.Graph{N: 2, U: make([]int32, c.m), V: make([]int32, c.m), W: make([]uint32, c.m)}
		for i := range g.V {
			g.V[i] = 1
			g.W[i] = uint32(i * 7919 % 1013)
		}
		if _, passes, _ := kruskalCounted(g); passes != c.passes {
			t.Errorf("m=%d: %d passes, want %d", c.m, passes, c.passes)
		}
	}
	g := weighted(graph.Random(500, 2000, 9), 10)
	msf, ns := KruskalTimed(g, sim.NewModel(machine.Sequential()))
	if err := CheckForest(g, msf); err != nil {
		t.Fatal(err)
	}
	if want := 240650.0; ns != want {
		t.Errorf("KruskalTimed = %v ns, want %v", ns, want)
	}
}
