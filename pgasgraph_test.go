package pgasgraph

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/serve"
)

func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := PaperCluster()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run dispatches spec on c and checks the result against the kernel's
// sequential oracle — how every test in this package runs a kernel.
func run(t *testing.T, c *Cluster, spec KernelSpec) *KernelResult {
	t.Helper()
	res, err := c.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Kernel, err)
	}
	if err := Verify(spec, res); err != nil {
		t.Fatalf("%s: %v", spec.Kernel, err)
	}
	return res
}

// optimized is the paper's fully optimized spelling of kernel on g: every
// collective optimization with t' virtual threads, plus compact.
func optimized(kernel string, g *Graph, tprime int) KernelSpec {
	return KernelSpec{Kernel: kernel, Graph: g, Col: OptimizedCollectives(tprime), Compact: true}
}

func TestNewClusterRejectsInvalid(t *testing.T) {
	cfg := PaperCluster()
	cfg.Nodes = -1
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := smallCluster(t)
	if c.Threads() != 8 {
		t.Fatalf("Threads = %d", c.Threads())
	}
	if c.Config().Nodes != 4 {
		t.Fatal("Config lost")
	}
	if c.Runtime() == nil || c.Comm() == nil {
		t.Fatal("internals not exposed")
	}
}

func TestEndToEndCC(t *testing.T) {
	c := smallCluster(t)
	g := HybridGraph(1000, 3000, 7)
	want := SequentialCC(g)

	run(t, c, KernelSpec{Kernel: "cc/naive", Graph: g})
	opt := run(t, c, optimized("cc/coalesced", g, 4))
	if !slices.Equal(want, opt.Labels) {
		t.Fatal("cc/coalesced labels are not the canonical minima")
	}
	run(t, c, optimized("cc/sv", g, 4))
	if opt.Components != CountComponents(want) {
		t.Fatal("component count wrong")
	}
	if opt.Run.SimNS <= 0 || opt.Run.Wall <= 0 {
		t.Fatal("run stats missing")
	}
	if d, ok := opt.Detail.(*CCResult); !ok || d.Run != opt.Run {
		t.Fatalf("Detail = %T, want the kernel's own *CCResult", opt.Detail)
	}
}

func TestEndToEndCCNilOptions(t *testing.T) {
	run(t, smallCluster(t), KernelSpec{Kernel: "cc/coalesced", Graph: RandomGraph(300, 900, 3)})
}

func TestEndToEndMSF(t *testing.T) {
	c := smallCluster(t)
	g := WithRandomWeights(RandomGraph(500, 1500, 11), 12)
	want, _ := KruskalTime(g, SequentialMachine())

	naive := run(t, c, KernelSpec{Kernel: "mst/naive", Graph: g})
	if naive.Weight != want.Weight {
		t.Fatalf("mst/naive weight %d, want %d", naive.Weight, want.Weight)
	}
	opt := run(t, c, optimized("mst/coalesced", g, 4))
	if opt.Weight != want.Weight {
		t.Fatalf("mst/coalesced weight %d, want %d", opt.Weight, want.Weight)
	}
	if len(opt.Edges) != len(want.Edges) {
		t.Fatal("forest size differs")
	}
}

func TestTimedBaselines(t *testing.T) {
	g := RandomGraph(400, 1200, 5)
	labels, ns := SequentialCCTime(g, SequentialMachine())
	if ns <= 0 {
		t.Fatal("no sequential time")
	}
	if !slices.Equal(labels, SequentialCC(g)) {
		t.Fatal("timed labels differ")
	}
	wg := WithRandomWeights(g, 6)
	msf, ns2 := KruskalTime(wg, SequentialMachine())
	// Minimality is the distributed kernel's oracle; here the forest only
	// has to span: n - #components edges.
	if ns2 <= 0 || int64(len(msf.Edges)) != g.N-CountComponents(labels) {
		t.Fatal("timed Kruskal wrong")
	}
}

func TestGraphConstructors(t *testing.T) {
	if g := RandomGraph(100, 200, 1); g.N != 100 || g.M() != 200 {
		t.Fatal("RandomGraph dims")
	}
	if g := HybridGraph(100, 300, 1); g.M() != 300 {
		t.Fatal("HybridGraph dims")
	}
	if g := RMATGraph(7, 200, 0.45, 0.22, 0.22, 0.11, 1); g.N != 128 || g.M() != 200 {
		t.Fatal("RMATGraph dims")
	}
	g := PermuteVertices(PathGraphForTest(), 1)
	if g.N != 4 {
		t.Fatal("PermuteVertices dims")
	}
}

// PathGraphForTest builds a tiny fixed graph through the public Graph type.
func PathGraphForTest() *Graph {
	return &Graph{N: 4, U: []int32{0, 1, 2}, V: []int32{1, 2, 3}}
}

func TestOptionPresets(t *testing.T) {
	if o := OptimizedCollectives(8); !o.Circular || !o.LocalCpy || !o.CachedIDs || !o.Offload || o.VirtualThreads != 8 {
		t.Fatalf("OptimizedCollectives wrong: %+v", o)
	}
	if o := BaseCollectives(); o.Circular || o.VirtualThreads != 1 {
		t.Fatalf("BaseCollectives wrong: %+v", o)
	}
	for _, o := range []*CollectiveOptions{BaseCollectives(), OptimizedCollectives(8), nil} {
		if err := o.Validate(); err != nil {
			t.Fatalf("preset %+v rejected: %v", o, err)
		}
	}
}

// TestValidateRejectsBadVectors covers the known-bad configurations: a
// non-positive virtual-thread count, an unknown sort kind, a negative
// offload index, and a cluster geometry beyond the packed-key limit.
func TestValidateRejectsBadVectors(t *testing.T) {
	bad := []*CollectiveOptions{
		{VirtualThreads: 0},
		{VirtualThreads: -3},
		{VirtualThreads: 1, Sort: 99},
		{VirtualThreads: 1, Offload: true, OffloadIndex: -1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad options accepted: %+v", o)
		}
	}

	cfg := PaperCluster()
	cfg.Nodes = MaxCollectiveThreads // × 16 threads per node
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("oversized cluster geometry accepted")
	}
}

// TestNilOptionsMatchDefaults runs every registry kernel once with a nil
// Col and once with BaseCollectives() and asserts the answers are
// identical — the nil ≡ base contract of the API.
func TestNilOptionsMatchDefaults(t *testing.T) {
	c := smallCluster(t)
	g := WithRandomWeights(HybridGraph(400, 1200, 21), 22)
	l := ChainsList(300, 3, 5)
	for _, name := range Kernels() {
		answer := func(col *CollectiveOptions) any {
			res := run(t, c, KernelSpec{Kernel: name, Graph: g, List: l, Col: col})
			return []any{res.Labels, res.Components, res.Dist, res.Parent, res.Edges, res.Weight, detailAnswer(res)}
		}
		if !reflect.DeepEqual(answer(nil), answer(BaseCollectives())) {
			t.Errorf("%s: nil Col and BaseCollectives() disagree", name)
		}
	}
}

// detailAnswer is the part of a result's answer that only Detail carries.
func detailAnswer(res *KernelResult) any {
	switch d := res.Detail.(type) {
	case *ListRankResult:
		return d.Ranks
	}
	return nil
}

// kernelInputs are the small inputs TestRunEveryKernel drives every row
// over: weighted, so each serves the rows that need weights too.
func kernelInputs() map[string]*Graph {
	star := &Graph{N: 40}
	forest := &Graph{N: 70} // a binary tree on [0,40), a path on [40,60), ten isolated vertices
	for v := int32(1); v < 40; v++ {
		star.U, star.V = append(star.U, 0), append(star.V, v)
		forest.U, forest.V = append(forest.U, v), append(forest.V, (v-1)/2)
	}
	for v := int32(41); v < 60; v++ {
		forest.U, forest.V = append(forest.U, v), append(forest.V, v-1)
	}
	inputs := map[string]*Graph{
		"random": RandomGraph(200, 500, 3),
		"hybrid": HybridGraph(220, 700, 4),
		"star":   star,
		"empty":  {N: 30},
		"forest": forest,
	}
	for name, g := range inputs {
		inputs[name] = WithRandomWeights(g, 9)
	}
	return inputs
}

// TestRunEveryKernel drives every name in Kernels() through Cluster.Run
// and Verify over a handful of small inputs.
func TestRunEveryKernel(t *testing.T) {
	if len(Kernels()) != 12 {
		t.Fatalf("Kernels() lists %d names, want 12: %v", len(Kernels()), Kernels())
	}
	c := smallCluster(t)
	lists := map[string]*List{"chain": RandomChainList(150, 7), "chains": ChainsList(90, 4, 8), "single": {N: 1, Succ: []int32{0}}}
	for _, name := range Kernels() {
		if serve.TakesList(name) {
			for in, l := range lists {
				res := run(t, c, KernelSpec{Kernel: name, List: l, Col: OptimizedCollectives(2)})
				if res.Run == nil || res.Detail == nil {
					t.Errorf("%s on %s: Run or Detail missing", name, in)
				}
			}
			continue
		}
		for in, g := range kernelInputs() {
			res := run(t, c, KernelSpec{Kernel: name, Graph: g, Src: g.N / 3, Col: OptimizedCollectives(2), Compact: true})
			if res.Kernel != name || res.Run == nil || res.Detail == nil {
				t.Errorf("%s on %s: Kernel %q, Run or Detail missing", name, in, res.Kernel)
			}
		}
	}
}

// TestRunMisuse: every way to hand Run the wrong input comes back as a
// classified misuse error through the same entry; none panics.
func TestRunMisuse(t *testing.T) {
	c := smallCluster(t)
	g := RandomGraph(50, 100, 1)
	l := RandomChainList(20, 2)
	for name, spec := range map[string]KernelSpec{
		"list kernel without a list":             {Kernel: "listrank/wyllie", Graph: g},
		"list kernel with a broken list":         {Kernel: "listrank/cgm", List: &List{N: 3, Succ: []int32{1, 7, 2}}},
		"graph kernel with only a list":          {Kernel: "cc/fastsv", List: l},
		"weighted kernel on an unweighted graph": {Kernel: "mst/coalesced", Graph: g},
		"source out of range":                    {Kernel: "bfs/coalesced", Graph: g, Src: g.N},
		"negative source":                        {Kernel: "bfs/coalesced", Graph: g, Src: -1},
		"invalid graph":                          {Kernel: "spanning-forest", Graph: &Graph{N: 2, U: []int32{0}, V: []int32{5}}},
		"invalid options":                        {Kernel: "cc/sv", Graph: g, Col: &CollectiveOptions{VirtualThreads: 1, Sort: 99}},
		"unknown name":                           {Kernel: "cc/no-such-rule", Graph: g, List: l},
	} {
		if res, err := c.Run(spec); !errors.Is(err, pgas.ErrMisuse) {
			t.Errorf("%s: Run returned (%v, %v), want a misuse error", name, res, err)
		}
	}
	// Verify is as classified as Run: what is not a (spec, its result) pair
	// is a misuse error, not a failed type assertion or a nil dereference.
	msf := KernelSpec{Kernel: "mst/coalesced", Graph: WithRandomWeights(g, 2)}
	ranks := run(t, c, KernelSpec{Kernel: "listrank/wyllie", List: l})
	for name, pair := range map[string]struct {
		spec KernelSpec
		res  *KernelResult
	}{
		"unknown kernel":         {KernelSpec{Kernel: "cc/no-such-rule"}, &KernelResult{}},
		"nil result":             {msf, nil},
		"empty result":           {msf, &KernelResult{}},
		"another row's result":   {msf, ranks},
		"spec without its graph": {KernelSpec{Kernel: msf.Kernel}, run(t, c, msf)},
		"spec without its list":  {KernelSpec{Kernel: ranks.Kernel, Graph: g}, ranks},
	} {
		if err := Verify(pair.spec, pair.res); !errors.Is(err, pgas.ErrMisuse) {
			t.Errorf("Verify, %s: %v, want a misuse error", name, err)
		}
	}
}

// TestReusedCluster verifies a single Cluster can run many kernels
// back to back (buffer reuse in Comm must not leak state).
func TestReusedCluster(t *testing.T) {
	c := smallCluster(t)
	for i := 0; i < 3; i++ {
		g := WithRandomWeights(RandomGraph(200+int64(i)*50, 600, uint64(i)+1), uint64(i)+10)
		run(t, c, optimized("cc/coalesced", g, 2))
		run(t, c, optimized("mst/coalesced", g, 2))
	}
}
