package pgasgraph_test

import (
	"fmt"

	"pgasgraph"
)

// exampleCluster builds the small cluster the examples run on.
func exampleCluster(nodes int) *pgasgraph.Cluster {
	cfg := pgasgraph.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = 2
	cluster, err := pgasgraph.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return cluster
}

// Example demonstrates the basic flow: build a cluster, generate a graph,
// run the paper's optimized connected components, verify.
func Example() {
	cluster := exampleCluster(4)
	g := pgasgraph.RandomGraph(10_000, 40_000, 42)
	spec := pgasgraph.KernelSpec{Kernel: "cc/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true}
	res, err := cluster.Run(spec)
	if err != nil {
		panic(err)
	}
	ok := pgasgraph.Verify(spec, res) == nil // against sequential union-find
	fmt.Println(res.Components, ok)
	// Output: 4 true
}

// ExampleCluster_Run_mst shows the lock-free distributed Borůvka and its
// exact agreement with sequential Kruskal.
func ExampleCluster_Run_mst() {
	g := pgasgraph.WithRandomWeights(pgasgraph.RandomGraph(5_000, 20_000, 7), 8)
	msf, _ := exampleCluster(4).Run(pgasgraph.KernelSpec{Kernel: "mst/coalesced", Graph: g,
		Col: pgasgraph.OptimizedCollectives(2), Compact: true})
	kruskal, _ := pgasgraph.KruskalTime(g, pgasgraph.SequentialMachine())
	fmt.Println(len(msf.Edges) == len(kruskal.Edges), msf.Weight == kruskal.Weight)
	// Output: true true
}

// ExampleCluster_Run_bfs shows hop distances from a source vertex.
func ExampleCluster_Run_bfs() {
	// Path 0-1-2-3.
	g := &pgasgraph.Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
	res, _ := exampleCluster(2).Run(pgasgraph.KernelSpec{Kernel: "bfs/coalesced", Graph: g, Src: 0})
	fmt.Println(res.Dist)
	// Output: [0 1 2 3]
}

// ExampleCluster_Run_listRank shows distributed list ranking: the list
// kernels take KernelSpec.List instead of a graph, and their ranks come
// back in Detail.
func ExampleCluster_Run_listRank() {
	// Chain 0 -> 1 -> 2 -> 3 (3 is the tail).
	l := &pgasgraph.List{N: 4, Succ: []int32{1, 2, 3, 3}}
	res, _ := exampleCluster(2).Run(pgasgraph.KernelSpec{Kernel: "listrank/wyllie", List: l})
	fmt.Println(res.Detail.(*pgasgraph.ListRankResult).Ranks)
	// Output: [3 2 1 0]
}

// ExampleCluster_Run_eulerTour shows the Euler tour technique rooting a
// path: spanning-forest roots its forest at each tree's smallest id with
// the tour and returns every vertex's parent.
func ExampleCluster_Run_eulerTour() {
	forest := &pgasgraph.Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
	res, _ := exampleCluster(2).Run(pgasgraph.KernelSpec{Kernel: "spanning-forest", Graph: forest})
	fmt.Println(res.Parent)
	// Output: [-1 0 1 2]
}

// ExampleCluster_Run_sssp shows weighted distances via delta-stepping.
func ExampleCluster_Run_sssp() {
	// Path 0-1-2 with weights 5 and 7, plus a costly shortcut 0-2.
	g := &pgasgraph.Graph{N: 3, U: []int32{0, 1, 0}, V: []int32{1, 2, 2}, W: []uint32{5, 7, 20}}
	res, _ := exampleCluster(2).Run(pgasgraph.KernelSpec{Kernel: "sssp/delta-stepping", Graph: g, Src: 0})
	fmt.Println(res.Dist)
	// Output: [0 5 12]
}

// ExampleCluster_Run_spanningForest shows forest extraction riding on CC.
func ExampleCluster_Run_spanningForest() {
	g := pgasgraph.RandomGraph(100, 300, 9)
	sf, _ := exampleCluster(2).Run(pgasgraph.KernelSpec{Kernel: "spanning-forest", Graph: g})
	fmt.Println(int64(len(sf.Edges)) == g.N-sf.Components)
	// Output: true
}
