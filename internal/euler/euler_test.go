package euler

import (
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

// refStats computes reference statistics sequentially: parents and depths
// by BFS from each root, subtree sizes by aggregation.
func refStats(f *graph.Graph) (parent, depth, size, root []int64) {
	n := f.N
	csr := graph.BuildCSR(f)
	roots := seq.CC(f)
	parent = make([]int64, n)
	depth = make([]int64, n)
	size = make([]int64, n)
	for v := int64(0); v < n; v++ {
		parent[v] = -1
		size[v] = 1
	}
	// BFS per root in id order.
	order := make([]int64, 0, n)
	for r := int64(0); r < n; r++ {
		if roots[r] != r {
			continue
		}
		queue := []int64{r}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, wv := range csr.Neighbors(v) {
				w := int64(wv)
				if w != r && parent[w] == -1 && roots[w] == r && w != v && parent[v] != w {
					parent[w] = v
					depth[w] = depth[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	// Subtree sizes: children accumulate into parents in reverse BFS order.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if parent[v] >= 0 {
			size[parent[v]] += size[v]
		}
	}
	return parent, depth, size, roots
}

func checkStats(t *testing.T, f *graph.Graph, st *TreeStats) {
	t.Helper()
	parent, depth, size, roots := refStats(f)
	for v := int64(0); v < f.N; v++ {
		if st.Root[v] != roots[v] {
			t.Fatalf("root[%d] = %d, want %d", v, st.Root[v], roots[v])
		}
		if st.Parent[v] != parent[v] {
			t.Fatalf("parent[%d] = %d, want %d", v, st.Parent[v], parent[v])
		}
		if st.Depth[v] != depth[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, st.Depth[v], depth[v])
		}
		if st.SubtreeSize[v] != size[v] {
			t.Fatalf("size[%d] = %d, want %d", v, st.SubtreeSize[v], size[v])
		}
	}
	// Preorder invariants (visit order is tour-specific, so check
	// structure, not exact values): within each tree the indices are a
	// permutation of 1..treeSize, parents precede children, and every
	// subtree occupies a contiguous interval.
	byTree := map[int64][]int64{}
	for v := int64(0); v < f.N; v++ {
		byTree[roots[v]] = append(byTree[roots[v]], v)
	}
	for r, vs := range byTree {
		seen := map[int64]bool{}
		for _, v := range vs {
			p := st.Preorder[v]
			if p < 1 || p > int64(len(vs)) || seen[p] {
				t.Fatalf("tree %d: preorder %d invalid or repeated (vertex %d)", r, p, v)
			}
			seen[p] = true
			if st.Parent[v] >= 0 && st.Preorder[st.Parent[v]] >= p {
				t.Fatalf("vertex %d precedes its parent in preorder", v)
			}
			// Subtree interval containment.
			if st.Parent[v] >= 0 {
				pv := st.Parent[v]
				if p < st.Preorder[pv] || p+st.SubtreeSize[v]-1 > st.Preorder[pv]+st.SubtreeSize[pv]-1 {
					t.Fatalf("vertex %d's interval escapes its parent's", v)
				}
			}
		}
		if st.Preorder[r] != 1 {
			t.Fatalf("root %d has preorder %d", r, st.Preorder[r])
		}
	}
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
				st := Tour(rt, collective.NewComm(rt), f, seq.CC(f), collective.Optimized(2))
				checkStats(t, f, st)
			})
		}
	}
}

func TestTourPathDepths(t *testing.T) {
	// Path 0-1-2-3-4 rooted at 0: depth[i] = i, size[i] = 5-i.
	rt := newRuntime(t, 2, 2)
	st := Tour(rt, collective.NewComm(rt), graph.Path(5), make([]int64, 5), nil)
	for i := int64(0); i < 5; i++ {
		if st.Depth[i] != i {
			t.Fatalf("depth[%d] = %d", i, st.Depth[i])
		}
		if st.SubtreeSize[i] != 5-i {
			t.Fatalf("size[%d] = %d", i, st.SubtreeSize[i])
		}
		if st.Preorder[i] != i+1 {
			t.Fatalf("preorder[%d] = %d", i, st.Preorder[i])
		}
	}
}

func TestTourProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int64(nRaw%80) + 1
		k := int64(kRaw)%n + 1
		f := randomForest(n, k, seed)
		st := Tour(rt, comm, f, seq.CC(f), collective.Optimized(2))
		parent, depth, size, _ := refStats(f)
		for v := int64(0); v < n; v++ {
			if st.Parent[v] != parent[v] || st.Depth[v] != depth[v] || st.SubtreeSize[v] != size[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTourOnSpanningForest(t *testing.T) {
	// End-to-end composition: spanning forest from CC, tree statistics
	// from the Euler tour.
	g := graph.Random(300, 900, 5)
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	sf := cc.SpanningTree(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	forest := sf.Forest(g)
	st := Tour(rt, comm, forest, sf.CC.Labels, collective.Optimized(2))
	checkStats(t, forest, st)
	// The tour's roots must agree with the graph's components.
	if !seq.SamePartition(st.Root, seq.CC(g)) {
		t.Fatal("tour roots disagree with the graph's components")
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
