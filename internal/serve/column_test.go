package serve

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/trace"
	"pgasgraph/internal/xrand"
)

// TestInsertCost guards what an insertion batch may allocate, stated in
// vertices so it does not depend on the host. The label update contracts
// the batch, not the graph: its scratch is a few words per inserted edge,
// and the sizes follow the merges, so nothing may allocate in proportion
// to n. What is left is the resident graph's edge lists growing by
// append. A graft-and-jump update with a host-side recount took 3.1 words
// per vertex, hash-map canonicalization 8.4. The labels run with the
// paper's optimized collectives, as pgasd's do.
func TestInsertCost(t *testing.T) {
	const n, batches, perVertex = 1 << 16, 20, 0.25
	s := newTestService(t, graph.Random(n, n, 41), 4, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced", Col: collective.Optimized(2)}); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(43)
	batch := make([]Edge, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < batches; b++ {
		for i := range batch {
			batch[i] = Edge{U: rng.Int64n(n), V: rng.Int64n(n)}
		}
		if rep, err := s.Insert(batch); err != nil || !rep.Incremental {
			t.Fatalf("batch %d: report %+v, err %v", b, rep, err)
		}
	}
	runtime.ReadMemStats(&after)
	words := float64(after.TotalAlloc-before.TotalAlloc) / 8 / batches / n
	t.Logf("%.2f words allocated per vertex per 64-edge batch", words)
	if words > perVertex {
		t.Fatalf("a 64-edge insert allocates %.2f words per vertex, budget %.2f", words, perVertex)
	}
}

// preloaded is a 2x2 service over g with the specs' results resident.
func preloaded(t *testing.T, g *graph.Graph, specs ...KernelSpec) *Service {
	t.Helper()
	s := newTestService(t, g, 2, 2)
	for _, spec := range specs {
		if _, err := s.Run(spec); err != nil {
			t.Fatalf("%s: %v", spec.Kernel, err)
		}
	}
	return s
}

// everyColumn is a service with all four kinds of result resident (two
// trees) and a batch that reads every column.
func everyColumn(t *testing.T) (*Service, []Query) {
	t.Helper()
	s := preloaded(t, graph.Random(200, 420, 7),
		KernelSpec{Kernel: "cc/coalesced"},
		KernelSpec{Kernel: "bfs/coalesced", Src: 9},
		KernelSpec{Kernel: "bfs/coalesced", Src: 3},
		KernelSpec{Kernel: "spanning-forest"})
	return s, []Query{
		{Op: TreeParent, U: 60},
		{Op: Distance, U: 3, V: 100},
		{Op: SameComponent, U: 0, V: 199},
		{Op: ComponentSize, U: 42},
		{Op: Distance, U: 150, V: 9},
		{Op: SameComponent, U: 17, V: 17},
		{Op: ComponentSize, U: 0},
		{Op: Distance, U: 77, V: 3},
	}
}

// planCounts runs qs and returns its answers with the plan builds and
// reuses the batch cost.
func planCounts(t *testing.T, s *Service, col *trace.Collector, qs []Query) (ans []int64, builds, reuses int64) {
	t.Helper()
	b0, r0 := col.PlanBuilds(), col.PlanReuses()
	ans, err := s.Query(qs)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return ans, col.PlanBuilds() - b0, col.PlanReuses() - r0
}

// TestColumnsKeepTheirOwnState: a batch is one gather per stage — the label
// stream, the table stream, and the dependent sizes gather, which is
// one-shot by nature and so the one build every batch with a ComponentSize
// lookup pays — a stream's plan lives and dies with its array, and a batch
// leaves nothing behind in either stream however it ends.
func TestColumnsKeepTheirOwnState(t *testing.T) {
	s, qs := everyColumn(t)
	col := trace.NewCollector(s.Runtime().NumThreads())
	s.Comm().SetTracer(col)
	if got, want := s.resident(), []string{"labels", "sizes", "dist[3]", "dist[9]", "parent"}; !slices.Equal(got, want) {
		t.Fatalf("Resident() = %v, want %v", got, want)
	}
	if got, want := s.table.arr.Len(), 3*s.g.N; got != want {
		t.Fatalf("table holds %d words, want %d (two trees and the forest, once)", got, want)
	}

	g0 := col.Calls("GetD")
	first, builds, reuses := planCounts(t, s, col, qs)
	if gathers := col.Calls("GetD") - g0; gathers != 3 || builds != 3 || reuses != 0 {
		t.Fatalf("first batch: %d gathers, %d builds, %d reuses; want 3 (labels, table, sizes), 3, 0", gathers, builds, reuses)
	}

	// Rejected at the last lookup, after both streams have taken requests.
	bad := append(slices.Clone(qs), Query{Op: TreeParent, U: 200})
	if _, err := s.Query(bad); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("bad batch: %v, want ErrMisuse", err)
	}
	if nl, nt := len(s.labels.req), len(s.table.req); nl != 0 || nt != 0 {
		t.Fatalf("after a rejected batch: %d label and %d table requests left", nl, nt)
	}
	again, builds, reuses := planCounts(t, s, col, qs)
	if !slices.Equal(again, first) {
		t.Fatalf("after a rejected batch: answers %v, want %v", again, first)
	}
	if builds != 1 || reuses != 2 {
		t.Fatalf("after a rejected batch: %d builds, %d reuses; want 1 (sizes), 2", builds, reuses)
	}

	// Insert drops the table whole. The label stream of the lookups that
	// remain answerable is the one it was, so its plan carries on; bringing
	// a tree back builds the new table's plan and no other.
	if _, err := s.Insert([]Edge{{U: 2, V: 117}}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.resident(), []string{"labels", "sizes"}; !slices.Equal(got, want) || s.table != nil {
		t.Fatalf("after Insert: Resident() = %v, table %v; want %v and none", got, s.table, want)
	}
	var labelsOnly, noParent []Query
	for _, q := range qs {
		if q.Op <= ComponentSize {
			labelsOnly = append(labelsOnly, q)
		}
		if q.Op != TreeParent && q.U != 9 && q.V != 9 {
			noParent = append(noParent, q)
		}
	}
	if _, builds, reuses = planCounts(t, s, col, labelsOnly); builds != 1 || reuses != 1 {
		t.Fatalf("label stream after Insert: %d builds, %d reuses; want 1 (sizes), 1", builds, reuses)
	}
	if _, err := s.Run(KernelSpec{Kernel: "bfs/coalesced", Src: 3}); err != nil {
		t.Fatal(err)
	}
	if _, builds, reuses = planCounts(t, s, col, noParent); builds != 2 || reuses != 1 {
		t.Fatalf("tree 3 back: %d builds, %d reuses; want 2 (table, sizes), 1", builds, reuses)
	}
	if _, err := s.Run(KernelSpec{Kernel: "spanning-forest"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "bfs/coalesced", Src: 9}); err != nil {
		t.Fatal(err)
	}
	// spanning-forest installs its own labels along with the parents, so
	// every stage plans again.
	if _, builds, reuses = planCounts(t, s, col, qs); builds != 3 || reuses != 0 {
		t.Fatalf("forest and tree 9 back: %d builds, %d reuses; want 3, 0", builds, reuses)
	}
}

// TestTableAnswersMatchHostArrays: random mixed batches are answered from
// the table exactly as the kernels' own host-side result arrays would
// answer them, across Run → Query → Insert (table dropped) → Run → Query,
// with a tree replaced in place and results arriving in every order.
func TestTableAnswersMatchHostArrays(t *testing.T) {
	g := graph.WithRandomWeights(graph.Random(300, 500, 71), 73)
	s := newTestService(t, g, 2, 2)
	dist := map[int64][]int64{}
	var parent []int64
	run := func(spec KernelSpec) {
		t.Helper()
		res, err := s.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kernel, err)
		}
		if res.Dist != nil {
			dist[spec.Src] = slices.Clone(res.Dist)
		}
		if res.Parent != nil {
			parent = slices.Clone(res.Parent)
		}
	}
	rng := xrand.New(79)
	check := func(stage string) {
		t.Helper()
		labels := s.Labels()
		sizes := map[int64]int64{}
		for _, l := range labels {
			sizes[l]++
		}
		var srcs []int64
		for src := range dist {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for b := 0; b < 4; b++ {
			qs := make([]Query, 1+rng.Intn(96))
			want := make([]int64, len(qs))
			for i := range qs {
				u, v := rng.Int64n(g.N), rng.Int64n(g.N)
				switch op := Op(1 + rng.Intn(4)); {
				case op == Distance && len(srcs) > 0:
					src := srcs[rng.Intn(len(srcs))]
					qs[i], want[i] = Query{Op: Distance, U: src, V: v}, dist[src][v]
					if _, both := dist[v]; rng.Intn(2) == 0 && !both {
						qs[i].U, qs[i].V = v, src
					}
				case op == TreeParent && parent != nil:
					qs[i], want[i] = Query{Op: TreeParent, U: u}, parent[u]
				case op == ComponentSize:
					qs[i], want[i] = Query{Op: ComponentSize, U: u}, sizes[labels[u]]
				default:
					qs[i], want[i] = Query{Op: SameComponent, U: u, V: v}, b2i(labels[u] == labels[v])
				}
			}
			got, err := s.Query(qs)
			if err != nil {
				t.Fatalf("%s, batch %d: %v", stage, b, err)
			}
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("%s, batch %d: lookup %d %+v = %d, host arrays say %d", stage, b, i, qs[i], got[i], want[i])
				}
			}
		}
	}

	run(KernelSpec{Kernel: "cc/coalesced"})
	check("labels only")
	run(KernelSpec{Kernel: "sssp/delta-stepping", Src: 200})
	run(KernelSpec{Kernel: "spanning-forest"})
	run(KernelSpec{Kernel: "bfs/coalesced", Src: 5})
	check("forest between two trees")
	run(KernelSpec{Kernel: "bfs/coalesced", Src: 200}) // hops replace weights, in place
	run(KernelSpec{Kernel: "bfs/coalesced", Src: 299})
	check("tree 200 replaced, tree 299 appended")

	edges := make([]Edge, 24)
	for i := range edges {
		edges[i] = Edge{U: rng.Int64n(g.N), V: rng.Int64n(g.N), W: uint32(1 + rng.Intn(9))}
	}
	if _, err := s.Insert(edges); err != nil {
		t.Fatal(err)
	}
	clear(dist)
	parent = nil
	if _, err := s.Query([]Query{{Op: Distance, U: 5, V: 1}}); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("distance after Insert: %v, want ErrMisuse (table dropped)", err)
	}
	check("after Insert")
	run(KernelSpec{Kernel: "spanning-forest"})
	run(KernelSpec{Kernel: "sssp/delta-stepping", Src: 0})
	check("table rebuilt on the grown graph")
}

// TestQueryErrorPrecedence pins which complaint a lookup with several
// things wrong gets, and which tree answers a Distance both of whose
// endpoints are resident sources.
func TestQueryErrorPrecedence(t *testing.T) {
	g := graph.WithRandomWeights(graph.Random(150, 400, 29), 31)
	bare := preloaded(t, g)
	full := preloaded(t, g,
		KernelSpec{Kernel: "cc/coalesced"},
		KernelSpec{Kernel: "bfs/coalesced", Src: 10},
		KernelSpec{Kernel: "sssp/delta-stepping", Src: 33})
	for _, tc := range []struct {
		s    *Service
		q    Query
		want string
	}{
		{full, Query{Op: Op(99), U: -5}, "unknown op"},
		{bare, Query{Op: Op(0), U: 1 << 40}, "unknown op"},
		{bare, Query{Op: SameComponent, U: -1, V: 2}, "no resident labels"},
		{bare, Query{Op: ComponentSize, U: 150}, "no resident labels"},
		{bare, Query{Op: TreeParent, U: 150}, "no resident forest"},
		{full, Query{Op: TreeParent, U: 150}, "no resident forest"},
		{bare, Query{Op: Distance, U: 0, V: 150}, "vertex 150 out of range"},
		{full, Query{Op: Distance, U: 10, V: -1}, "vertex -1 out of range"},
		{full, Query{Op: Distance, U: 0, V: 1}, "no resident tree rooted at 0 or 1"},
		{full, Query{Op: SameComponent, U: 150, V: -1}, "vertex 150 out of range"},
		{full, Query{Op: ComponentSize, U: -1}, "vertex -1 out of range"},
	} {
		_, err := tc.s.Query([]Query{tc.q})
		if !errors.Is(err, pgas.ErrMisuse) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want misuse mentioning %q", tc.q, err, tc.want)
		}
	}

	// 10's tree counts hops and 33's sums weights, so which tree answered
	// shows in the answer: U's.
	ans, err := full.Query([]Query{{Op: Distance, U: 10, V: 33}, {Op: Distance, U: 33, V: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Two trees: row v is (10's tree, 33's tree).
	hops, weighted := full.table.arr.Raw()[33*2+0], full.table.arr.Raw()[10*2+1]
	if hops == weighted {
		t.Fatalf("test graph cannot tell the trees apart: both say %d", hops)
	}
	if ans[0] != hops || ans[1] != weighted {
		t.Fatalf("distance(10,33), distance(33,10) = %v, want %d (10's tree), %d (33's tree)", ans, hops, weighted)
	}
}
