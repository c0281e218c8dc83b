package serve

import (
	"errors"
	"strings"
	"testing"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/sssp"
	"pgasgraph/internal/trace"
	"pgasgraph/internal/unionfind"
	"pgasgraph/internal/xrand"
)

func testMachine(nodes, tpn int) machine.Config {
	cfg := machine.SingleSMP()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	return cfg
}

func newTestService(t *testing.T, g *graph.Graph, nodes, tpn int) *Service {
	t.Helper()
	s, err := New(Config{Machine: testMachine(nodes, tpn)}, g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// oracle state for a test graph.
type oracle struct {
	labels []int64
	sizes  map[int64]int64
	dist   map[int64][]int64 // src -> hop distances
}

func buildOracle(g *graph.Graph, srcs ...int64) *oracle {
	o := &oracle{labels: seq.CC(g), sizes: map[int64]int64{}, dist: map[int64][]int64{}}
	for _, l := range o.labels {
		o.sizes[l]++
	}
	for _, s := range srcs {
		o.dist[s] = bfs.SeqDistances(g, s)
	}
	return o
}

func TestQueryAnswersMatchOracle(t *testing.T) {
	g := graph.Random(200, 420, 7)
	s := newTestService(t, g, 2, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatalf("cc run: %v", err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "bfs/coalesced", Src: 3}); err != nil {
		t.Fatalf("bfs run: %v", err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "spanning-forest"}); err != nil {
		t.Fatalf("forest run: %v", err)
	}
	o := buildOracle(g, 3)

	qs := []Query{
		{Op: SameComponent, U: 0, V: 199},
		{Op: SameComponent, U: 17, V: 17},
		{Op: ComponentSize, U: 42},
		{Op: Distance, U: 3, V: 100},
		{Op: Distance, U: 150, V: 3}, // source on either side
		{Op: TreeParent, U: 60},
	}
	ans, err := s.Query(qs)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if want := b2i(o.labels[0] == o.labels[199]); ans[0] != want {
		t.Errorf("same-component(0,199) = %d, want %d", ans[0], want)
	}
	if ans[1] != 1 {
		t.Errorf("same-component(17,17) = %d, want 1", ans[1])
	}
	if want := o.sizes[o.labels[42]]; ans[2] != want {
		t.Errorf("component-size(42) = %d, want %d", ans[2], want)
	}
	if want := o.dist[3][100]; ans[3] != want {
		t.Errorf("distance(3,100) = %d, want %d", ans[3], want)
	}
	if want := o.dist[3][150]; ans[4] != want {
		t.Errorf("distance(150,3) = %d, want %d", ans[4], want)
	}
	// Tree parent: must be a real tree edge or -1, and consistent with
	// the resident labels (parent in the same component).
	if p := ans[5]; p != -1 {
		lab := s.Labels()
		if lab[p] != lab[60] {
			t.Errorf("tree-parent(60) = %d crosses components", p)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestQueryEmptyBatch(t *testing.T) {
	s := newTestService(t, graph.Random(50, 80, 1), 2, 2)
	ans, err := s.Query(nil)
	if err != nil || len(ans) != 0 {
		t.Fatalf("empty batch: ans=%v err=%v, want empty, nil", ans, err)
	}
}

func TestQueryDuplicateVertices(t *testing.T) {
	g := graph.Random(80, 160, 3)
	s := newTestService(t, g, 2, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	o := buildOracle(g)
	qs := []Query{
		{Op: ComponentSize, U: 5},
		{Op: ComponentSize, U: 5},
		{Op: SameComponent, U: 5, V: 5},
		{Op: ComponentSize, U: 5},
	}
	ans, err := s.Query(qs)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want := o.sizes[o.labels[5]]
	if ans[0] != want || ans[1] != want || ans[3] != want {
		t.Errorf("duplicate component-size answers %v, want all %d", ans, want)
	}
	if ans[2] != 1 {
		t.Errorf("same-component(5,5) = %d, want 1", ans[2])
	}
}

func TestQueryOutOfRangeClassifiesMisuse(t *testing.T) {
	g := graph.Random(60, 100, 5)
	s := newTestService(t, g, 2, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	for _, qs := range [][]Query{
		{{Op: SameComponent, U: -1, V: 2}},
		{{Op: SameComponent, U: 0, V: 60}},
		{{Op: ComponentSize, U: 1 << 40}},
		{{Op: Op(99), U: 0}},
	} {
		_, err := s.Query(qs)
		if err == nil {
			t.Fatalf("query %v: no error", qs)
		}
		if !errors.Is(err, pgas.ErrMisuse) {
			t.Fatalf("query %v: error %v not classified ErrMisuse", qs, err)
		}
	}
	// Missing resident state is misuse too, not a panic.
	_, err := s.Query([]Query{{Op: Distance, U: 0, V: 1}})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("distance without tree: %v, want ErrMisuse", err)
	}
	_, err = s.Query([]Query{{Op: TreeParent, U: 0}})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("tree-parent without forest: %v, want ErrMisuse", err)
	}
	// And a service with no labels at all.
	s2 := newTestService(t, g, 2, 2)
	_, err = s2.Query([]Query{{Op: SameComponent, U: 0, V: 1}})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("same-component without labels: %v, want ErrMisuse", err)
	}
}

// TestQueryBatchSpansAllNodes drives a batch touching every vertex of
// every thread's block on a 4-node cluster, so every (server, requester)
// pair carries traffic.
func TestQueryBatchSpansAllNodes(t *testing.T) {
	g := graph.Random(256, 600, 11)
	s := newTestService(t, g, 4, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	o := buildOracle(g)
	qs := make([]Query, g.N)
	for v := int64(0); v < g.N; v++ {
		qs[v] = Query{Op: ComponentSize, U: v}
	}
	ans, err := s.Query(qs)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for v := int64(0); v < g.N; v++ {
		if want := o.sizes[o.labels[v]]; ans[v] != want {
			t.Fatalf("component-size(%d) = %d, want %d", v, ans[v], want)
		}
	}
}

// TestQueryBatchGathersAreBulk asserts the batching contract: a batch of
// B lookups issues O(1) bulk gathers — and a repeated batch re-executes
// cached plans (reuses grow, builds stay flat).
func TestQueryBatchGathersAreBulk(t *testing.T) {
	g := graph.Random(300, 700, 13)
	s := newTestService(t, g, 2, 4)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(s.Runtime().NumThreads())
	s.Comm().SetTracer(col)

	const B = 128
	qs := make([]Query, B)
	for i := range qs {
		qs[i] = Query{Op: SameComponent, U: int64(i % int(g.N)), V: int64((7 * i) % int(g.N))}
	}
	if _, err := s.Query(qs); err != nil {
		t.Fatalf("Query: %v", err)
	}
	builds1, reuses1 := col.PlanBuilds(), col.PlanReuses()
	getds1 := col.Calls("GetD")
	if getds1 == 0 || getds1 > 2 {
		t.Fatalf("batch of %d lookups issued %d bulk gathers, want O(1) (1-2)", B, getds1)
	}
	if builds1 != 1 {
		t.Fatalf("first batch: %d plan builds, want 1", builds1)
	}

	// Same batch again: the cached plan must be re-executed, not rebuilt.
	if _, err := s.Query(qs); err != nil {
		t.Fatalf("Query #2: %v", err)
	}
	builds2, reuses2 := col.PlanBuilds(), col.PlanReuses()
	if builds2 != builds1 {
		t.Fatalf("repeated batch rebuilt its plan: builds %d -> %d", builds1, builds2)
	}
	if reuses2 <= reuses1 {
		t.Fatalf("repeated batch did not reuse the plan: reuses %d -> %d", reuses1, reuses2)
	}

	// A different batch shape rebuilds once, then serves.
	qs[0].U = (qs[0].U + 1) % g.N
	if _, err := s.Query(qs); err != nil {
		t.Fatalf("Query #3: %v", err)
	}
	if builds3 := col.PlanBuilds(); builds3 != builds2+1 {
		t.Fatalf("changed batch: builds %d -> %d, want one rebuild", builds2, builds3)
	}
}

func TestInsertIncrementalMatchesRecompute(t *testing.T) {
	g := graph.Random(240, 300, 17) // sparse: plenty of components to merge
	s, err := New(Config{Machine: testMachine(2, 2), Verify: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	before := s.Components()

	// A chain of inserts that merges several components at once,
	// including a chain (a-b, b-c) within one batch — then random batches,
	// twenty in all.
	batches := [][]Edge{
		{{U: 0, V: 239}},
		{{U: 1, V: 100}, {U: 100, V: 200}, {U: 200, V: 5}},
		{{U: 3, V: 3}, {U: 7, V: 9}}, // self-loop + normal
	}
	rng := xrand.New(0x51e5)
	for len(batches) < 20 {
		batch := make([]Edge, 1+rng.Intn(4))
		for i := range batch {
			batch[i] = Edge{U: rng.Int64n(g.N), V: rng.Int64n(g.N)}
		}
		batches = append(batches, batch)
	}
	// The test's own union-find follows the inserts; the component count
	// and every component size must agree with it after each batch.
	uf, sets := unionfind.New(g.N), g.N
	for i := range g.U {
		if uf.Union(g.U[i], g.V[i]) {
			sets--
		}
	}
	sizeOf := make([]Query, g.N)
	for v := range sizeOf {
		sizeOf[v] = Query{Op: ComponentSize, U: int64(v)}
	}
	for _, batch := range batches {
		rep, err := s.Insert(batch)
		if err != nil {
			t.Fatalf("Insert(%v): %v", batch, err)
		}
		if !rep.Incremental {
			t.Fatalf("Insert(%v) did not take the incremental path", batch)
		}
		if !rep.Verified {
			t.Fatalf("Insert(%v) skipped differential verification", batch)
		}
		for _, e := range batch {
			if uf.Union(int32(e.U), int32(e.V)) {
				sets--
			}
		}
		if s.Components() != sets || rep.Components != sets {
			t.Fatalf("after Insert(%v): %d components (report %d), union-find has %d",
				batch, s.Components(), rep.Components, sets)
		}
		want := map[int32]int64{}
		for v := int32(0); int64(v) < g.N; v++ {
			want[uf.Find(v)]++
		}
		sizes, err := s.Query(sizeOf)
		if err != nil {
			t.Fatalf("sizes after Insert(%v): %v", batch, err)
		}
		for v, got := range sizes {
			if got != want[uf.Find(int32(v))] {
				t.Fatalf("after Insert(%v): component-size(%d) = %d, union-find says %d",
					batch, v, got, want[uf.Find(int32(v))])
			}
		}
	}
	if s.Components() >= before {
		t.Fatalf("components did not drop: %d -> %d", before, s.Components())
	}
	// Labels must be bit-identical to union-find's canonical labeling of
	// the mutated graph.
	want := seq.CC(s.Graph())
	got := s.Labels()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestVerifyCatchesCorruptSizes: a verified Insert holds the sizes it
// maintains from the merges to a recount of the recompute, not only the
// labels. One corrupted size entry, of a component the batch does not
// touch, fails the insert.
func TestVerifyCatchesCorruptSizes(t *testing.T) {
	g := &graph.Graph{N: 8, U: []int32{3, 0}, V: []int32{4, 1}}
	s, err := New(Config{Machine: testMachine(2, 2), Verify: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([]Edge{{U: 5, V: 6}}); err != nil {
		t.Fatalf("clean verified insert: %v", err)
	}
	s.sizes.Raw()[3]++
	_, err = s.Insert([]Edge{{U: 6, V: 7}})
	if want := "size of label 3 is 3, recompute says 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("verified insert over a corrupted size: err %v, want one saying %q", err, want)
	}
}

func TestInsertRejectsOutOfRange(t *testing.T) {
	s := newTestService(t, graph.Random(40, 60, 2), 2, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Insert([]Edge{{U: 0, V: 40}})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("out-of-range insert: %v, want ErrMisuse", err)
	}
	// The graph must not have been mutated by the rejected batch.
	if m := s.Graph().M(); m != 60 {
		t.Fatalf("rejected insert mutated the graph: m=%d", m)
	}
}

func TestInsertDropsTreesAndKeepsQueryPlansFresh(t *testing.T) {
	g := graph.Random(120, 150, 23)
	s := newTestService(t, g, 2, 2)
	if _, err := s.Run(KernelSpec{Kernel: "cc/coalesced"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(KernelSpec{Kernel: "bfs/coalesced", Src: 0}); err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Op: SameComponent, U: 2, V: 117}}
	ans1, err := s.Query(qs)
	if err != nil {
		t.Fatal(err)
	}
	if ans1[0] == 1 && seq.CC(g)[2] != seq.CC(g)[117] {
		t.Fatal("pre-insert answer wrong")
	}

	if _, err := s.Insert([]Edge{{U: 2, V: 117}}); err != nil {
		t.Fatal(err)
	}
	// Distance trees are dropped by the insertion contract.
	if _, err := s.Query([]Query{{Op: Distance, U: 0, V: 5}}); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("distance after insert: %v, want ErrMisuse (tree dropped)", err)
	}
	// The same-component plan survives and must see the merged labels.
	ans2, err := s.Query(qs)
	if err != nil {
		t.Fatal(err)
	}
	if ans2[0] != 1 {
		t.Fatalf("same-component(2,117) after inserting (2,117) = %d, want 1", ans2[0])
	}
}

func TestRunUnknownKernelClassifiesMisuse(t *testing.T) {
	s := newTestService(t, graph.Random(30, 40, 1), 2, 2)
	_, err := s.Run(KernelSpec{Kernel: "cc/quantum"})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unknown kernel: %v, want ErrMisuse", err)
	}
	_, err = s.Run(KernelSpec{Kernel: "sssp/delta-stepping"}) // unweighted graph
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("weighted kernel on unweighted graph: %v, want ErrMisuse", err)
	}
	_, err = s.Run(KernelSpec{Kernel: "bfs/coalesced", Src: -4})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("negative source: %v, want ErrMisuse", err)
	}
	// None of these names is a registry row: each is refused like any
	// unknown name, before anything runs.
	for _, gone := range []string{"mis/luby", "triangle/count", "bcc/tarjan-vishkin", "cc/bipartite"} {
		if _, err := s.Run(KernelSpec{Kernel: gone}); !errors.Is(err, pgas.ErrMisuse) {
			t.Errorf("deleted kernel %s: %v, want ErrMisuse", gone, err)
		}
	}
}

func TestSSSPTreeServesWeightedDistance(t *testing.T) {
	g := graph.WithRandomWeights(graph.Random(150, 400, 29), 31)
	s := newTestService(t, g, 2, 2)
	res, err := s.Run(KernelSpec{Kernel: "sssp/delta-stepping", Src: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sssp.VerifyDistances(g, 10, res.Dist); err != nil {
		t.Fatal(err)
	}
	want := res.Dist
	ans, err := s.Query([]Query{{Op: Distance, U: 10, V: 77}, {Op: Distance, U: 33, V: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if ans[0] != want[77] || ans[1] != want[33] {
		t.Fatalf("weighted distances %v, want %d and %d", ans, want[77], want[33])
	}
}
