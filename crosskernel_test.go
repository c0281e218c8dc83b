package pgasgraph

import "testing"

// TestCrossKernelConsistency runs every public kernel on one shared input
// and checks the invariants that tie their answers together — a web of
// mutual evidence stronger than any single sequential comparison:
//
//   - BFS reachability from a component's representative covers exactly
//     that component (CC vs BFS);
//   - spanning forest edges stay within components and count n - #comps;
//   - Euler-tour parents are the forest's BFS predecessors from each CC
//     label;
//   - weighted SSSP distances are bounded below by hop distances (every
//     weight >= 1) and agree exactly on reachability;
//   - MSF weight matches Kruskal and its edges span exactly the components.
//
// Every run also passes its own kernel's oracle (run calls Verify).
func TestCrossKernelConsistency(t *testing.T) {
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Disjoint3(t)
	wg := g.Clone()
	wg.W = make([]uint32, g.M())
	for i := range wg.W {
		wg.W[i] = uint32(1 + (i*2654435761)%1000) // >= 1, deterministic
	}

	cc := run(t, c, optimized("cc/coalesced", g, 2))
	sf := run(t, c, optimized("spanning-forest", g, 2))
	msf := run(t, c, optimized("mst/coalesced", wg, 2))

	// CC vs BFS reachability, per component representative.
	bfsFrom := func(g *Graph, src int64) []int64 {
		spec := optimized("bfs/coalesced", g, 2)
		spec.Src = src
		return run(t, c, spec).Dist
	}
	reps := map[int64]bool{}
	for _, l := range cc.Labels {
		reps[l] = true
	}
	for rep := range reps {
		dist := bfsFrom(g, rep)
		for v := int64(0); v < g.N; v++ {
			reached := dist[v] != BFSUnreached
			sameComp := cc.Labels[v] == cc.Labels[rep]
			if reached != sameComp {
				t.Fatalf("BFS from %d and CC disagree at vertex %d", rep, v)
			}
		}
	}

	// Spanning forest structure.
	if int64(len(sf.Edges)) != g.N-cc.Components {
		t.Fatalf("forest edges %d != n - components %d", len(sf.Edges), g.N-cc.Components)
	}
	for _, e := range sf.Edges {
		if cc.Labels[g.U[e]] != cc.Labels[g.V[e]] {
			t.Fatalf("forest edge %d crosses components", e)
		}
	}

	// The Euler tour roots each forest tree at its CC label: a vertex's
	// tour parent is its BFS predecessor in the forest — the one forest
	// neighbor a hop nearer the label.
	forest := &Graph{N: g.N}
	edge := map[[2]int64]bool{}
	for _, e := range sf.Edges {
		u, v := g.U[e], g.V[e]
		forest.U, forest.V = append(forest.U, u), append(forest.V, v)
		edge[[2]int64{int64(u), int64(v)}], edge[[2]int64{int64(v), int64(u)}] = true, true
	}
	for r := int64(0); r < g.N; r++ {
		if cc.Labels[r] != r {
			continue
		}
		fd := bfsFrom(forest, r)
		for v := int64(0); v < g.N; v++ {
			if cc.Labels[v] != r {
				continue
			}
			if p := sf.Parent[v]; v == r && p != -1 || v != r && (p < 0 || !edge[[2]int64{v, p}] || fd[p] != fd[v]-1) {
				t.Fatalf("tour parent[%d]=%d is not its predecessor in a forest BFS from %d", v, p, r)
			}
		}
	}

	// SSSP vs BFS: weights >= 1 imply dist_w >= dist_hops, with equal
	// reachability.
	rep := cc.Labels[0]
	hops := bfsFrom(g, rep)
	sssp := optimized("sssp/delta-stepping", wg, 2)
	sssp.Src = rep
	weighted := run(t, c, sssp).Dist
	for v := int64(0); v < g.N; v++ {
		hReached := hops[v] != BFSUnreached
		wReached := weighted[v] != SSSPUnreached
		if hReached != wReached {
			t.Fatalf("reachability disagrees at %d", v)
		}
		if wReached && weighted[v] < hops[v] {
			t.Fatalf("weighted dist %d below hop count %d at %d", weighted[v], hops[v], v)
		}
	}

	// MSF (its weight checked against Kruskal by run) against CC.
	if int64(len(msf.Edges)) != g.N-cc.Components {
		t.Fatal("MSF edge count inconsistent with components")
	}
}

// TestCCFamilyAcrossSchemes is the fast-converging family's differential
// wall at the public surface: on every partition scheme, every collective
// CC kernel (Bader-Cong/Coalesced, SV and FastSV) must produce
// bit-identical canonical labels, with edge compaction on and off, and the
// labels must not depend on the scheme either. The sparse input (m = n) is
// the one FastSV with Compact used to mislabel.
func TestCCFamilyAcrossSchemes(t *testing.T) {
	g := Disjoint3(t)
	rmat := PermuteVertices(RMATGraph(8, 500, 0.45, 0.25, 0.15, 0.15, 17), 5)
	sparse := RandomGraph(1024, 1024, 7134611160154358618)

	for _, tg := range []struct {
		name string
		g    *Graph
	}{{"disjoint3", g}, {"rmat", rmat}, {"sparse", sparse}} {
		ref := SequentialCC(tg.g) // scheme-, kernel- and option-independent
		for _, scheme := range []struct {
			name string
			spec func(*Graph) PartitionSpec
		}{
			{"block", func(*Graph) PartitionSpec { return PartitionSpec{Kind: SchemeBlock} }},
			{"cyclic", func(*Graph) PartitionSpec { return PartitionSpec{Kind: SchemeCyclic} }},
			{"hub", func(gr *Graph) PartitionSpec {
				return PartitionSpec{Kind: SchemeHub, Hubs: Hubs(gr, 32)}
			}},
		} {
			newCluster := func() *Cluster {
				cfg := PaperCluster()
				cfg.Nodes = 3
				cfg.ThreadsPerNode = 2
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SetPartition(scheme.spec(tg.g)); err != nil {
					t.Fatal(err)
				}
				return c
			}
			for _, k := range []string{"coalesced", "sv", "fastsv"} {
				for _, compact := range []bool{false, true} {
					res := run(t, newCluster(), KernelSpec{
						Kernel: "cc/" + k, Graph: tg.g, Col: OptimizedCollectives(2), Compact: compact,
					})
					for i := range ref {
						if res.Labels[i] != ref[i] {
							t.Fatalf("cc/%s compact=%v on %s/%s: label[%d] = %d, reference labeling says %d",
								k, compact, scheme.name, tg.name, i, res.Labels[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// Disjoint3 builds a multi-component test graph: a hybrid blob, a grid,
// and isolated vertices.
func Disjoint3(t *testing.T) *Graph {
	t.Helper()
	blob := HybridGraph(300, 900, 5)
	grid := gridGraph(8, 9)
	out := &Graph{}
	var base int64
	for _, g := range []*Graph{blob, grid, {N: 4}} {
		for i := range g.U {
			out.U = append(out.U, g.U[i]+int32(base))
			out.V = append(out.V, g.V[i]+int32(base))
		}
		base += g.N
	}
	out.N = base
	return out
}

func gridGraph(rows, cols int64) *Graph {
	g := &Graph{N: rows * cols}
	id := func(r, c int64) int32 { return int32(r*cols + c) }
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			if c+1 < cols {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r, c+1))
			}
			if r+1 < rows {
				g.U = append(g.U, id(r, c))
				g.V = append(g.V, id(r+1, c))
			}
		}
	}
	return g
}
