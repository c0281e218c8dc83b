package euler

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
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

// randomForest builds a forest of k trees over n vertices: each non-root
// vertex attaches to a random earlier vertex of its tree, then labels are
// shuffled so vertex ids carry no structure.
func randomForest(n, k int64, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	perm := rng.Perm(int(n))
	g := &graph.Graph{N: n}
	for c := int64(0); c < k; c++ {
		lo, hi := pgas.Span(n, int(k), int(c))
		for p := lo + 1; p < hi; p++ {
			q := lo + rng.Int64n(p-lo)
			g.U = append(g.U, int32(perm[p]))
			g.V = append(g.V, int32(perm[q]))
		}
	}
	return g
}

// refParents computes reference parents sequentially, by BFS from each
// tree's smallest id.
func refParents(f *graph.Graph) []int64 {
	n := f.N
	csr := graph.BuildCSR(f)
	roots := seq.CC(f)
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = -1
	}
	for r := int64(0); r < n; r++ {
		if roots[r] != r {
			continue
		}
		queue := []int64{r}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, wv := range csr.Neighbors(v) {
				w := int64(wv)
				if w != r && parent[w] == -1 && roots[w] == r && w != v && parent[v] != w {
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}
	return parent
}

func checkParents(t *testing.T, f *graph.Graph, parent []int64) {
	t.Helper()
	if want := refParents(f); !slices.Equal(parent, want) {
		t.Fatalf("parents %v, want %v", head(parent), head(want))
	}
	if err := VerifyParents(f, parent); err != nil {
		t.Fatal(err)
	}
}

func head(s []int64) []int64 {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

func TestTourKnownShapes(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"empty":     graph.Empty(5),
		"edge":      graph.Path(2),
		"path":      graph.Path(12),
		"star":      graph.Star(9),
		"reverse":   graph.ReverseIdentity(10),
		"two-trees": graph.Disjoint(graph.Path(5), graph.Star(4)),
		"forest":    randomForest(60, 4, 7),
		"big-tree":  randomForest(200, 1, 8),
	}
	for name, f := range shapes {
		for _, geo := range []struct{ nodes, tpn int }{{1, 2}, {4, 2}} {
			t.Run(name, func(t *testing.T) {
				rt := newRuntime(t, geo.nodes, geo.tpn)
				checkParents(t, f, Tour(rt, collective.NewComm(rt), f, seq.CC(f), collective.Optimized(2)))
			})
		}
	}
}

func TestTourPathParents(t *testing.T) {
	// Path 0-1-2-3-4 rooted at 0: parent[i] = i-1.
	rt := newRuntime(t, 2, 2)
	parent := Tour(rt, collective.NewComm(rt), graph.Path(5), make([]int64, 5), nil)
	if want := []int64{-1, 0, 1, 2, 3}; !slices.Equal(parent, want) {
		t.Fatalf("parents %v, want %v", parent, want)
	}
}

func TestTourProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int64(nRaw%80) + 1
		k := int64(kRaw)%n + 1
		f := randomForest(n, k, seed)
		return slices.Equal(Tour(rt, comm, f, seq.CC(f), collective.Optimized(2)), refParents(f))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTourOnSpanningForest(t *testing.T) {
	// End-to-end composition: spanning forest from CC, rooted by the
	// Euler tour.
	g := graph.Random(300, 900, 5)
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	sf := cc.SpanningTree(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	forest := sf.Forest(g)
	parent := Tour(rt, comm, forest, sf.CC.Labels, collective.Optimized(2))
	checkParents(t, forest, parent)
	// The tour's roots are the labeling's: each component's minimum id.
	for v, l := range sf.CC.Labels {
		if (parent[v] == -1) != (l == int64(v)) {
			t.Fatalf("vertex %d: parent %d under label %d", v, parent[v], l)
		}
	}
}

func TestTourRejectsNonForest(t *testing.T) {
	rt := newRuntime(t, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cyclic input did not panic")
		}
	}()
	Tour(rt, collective.NewComm(rt), graph.Cycle(4), make([]int64, 4), nil)
}

// TestVerifyParentsRejects hands the oracle wrong parent arrays over one
// small forest — a tree 0-1, 1-2, 1-3 and a path 4-5-6, whose parents are
// [-1 0 1 1 -1 4 5] — and requires each rejection to name its vertex.
func TestVerifyParentsRejects(t *testing.T) {
	f := &graph.Graph{N: 7, U: []int32{0, 1, 1, 4, 5}, V: []int32{1, 2, 3, 5, 6}}
	if err := VerifyParents(f, []int64{-1, 0, 1, 1, -1, 4, 5}); err != nil {
		t.Fatalf("right parents rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		parent []int64
		want   string
	}{
		{"two-cycle on a forest edge", []int64{-1, 2, 1, 1, -1, 4, 5}, "parent[1] = 2 points away from the root"},
		{"parent not a forest edge", []int64{-1, 0, 1, 2, -1, 4, 5}, "parent link 3 -> 2 is not a forest edge"},
		{"root with a parent", []int64{-1, 0, 1, 1, 0, 4, 5}, "vertex 4 is its tree's smallest id"},
		{"non-root without a parent", []int64{-1, 0, 1, 1, -1, 4, -1}, "vertex 6 has no parent"},
		{"tree rooted at its maximum", []int64{-1, 0, 1, 1, 5, 6, -1}, "vertex 4 is its tree's smallest id"},
	} {
		err := VerifyParents(f, tc.parent)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v accepted or misnamed: err %v, want %q", tc.name, tc.parent, err, tc.want)
		}
	}
}
