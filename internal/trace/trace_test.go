package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
)

func newRuntime(t *testing.T, nodes, tpn int) *pgas.Runtime {
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

func TestCollectorDirect(t *testing.T) {
	c := NewCollector(4)
	var d sim.Breakdown
	d[sim.CatComm] = 1e6
	c.Collective(collective.Call{Kind: "GetD", Thread: 0, Delta: d, Offered: 100, Kept: 100, Wall: 1500 * time.Nanosecond, Growths: 2, Served: []int64{0, 50, 70, 0}})
	c.Collective(collective.Call{Kind: "GetD", Thread: 1, Delta: d, Offered: 100, Kept: 60, Wall: 500 * time.Nanosecond, Growths: 1})

	if got := c.Calls("GetD"); got != 0 {
		t.Fatalf("Calls = %d after 2 of 4 participations, want 0 (rounded down)", got)
	}
	c.Collective(collective.Call{Kind: "GetD", Thread: 2, Delta: d, Offered: 100, Kept: 100})
	c.Collective(collective.Call{Kind: "GetD", Thread: 3, Delta: d, Offered: 100, Kept: 100, Served: []int64{10, 0, 0, 0}})
	if got := c.Calls("GetD"); got != 1 {
		t.Fatalf("Calls = %d, want 1", got)
	}
	if got := c.WallNS("GetD"); got != 2000 {
		t.Fatalf("WallNS = %d, want 2000", got)
	}
	if got := c.Growths("GetD"); got != 3 {
		t.Fatalf("Growths = %d, want 3", got)
	}
	if offered, kept := c.Requests("GetD"); offered != 400 || kept != 360 {
		t.Fatalf("Requests = %d offered / %d kept, want 400 / 360", offered, kept)
	}
	if b, r := c.PlanBuilds(), c.PlanReuses(); b != 1 || r != 0 {
		t.Fatalf("PlanBuilds, PlanReuses = %d, %d after one built call; want 1, 0", b, r)
	}
	for th := 0; th < 4; th++ {
		c.Collective(collective.Call{Kind: "GetD", Thread: th, Reused: true})
	}
	if b, r := c.PlanBuilds(), c.PlanReuses(); b != 1 || r != 1 {
		t.Fatalf("PlanBuilds, PlanReuses = %d, %d after a reused call; want 1, 1", b, r)
	}
	if total, imb, hot := loadOf(c); total != 130 || imb != 120*4/130. || hot[0] != "hot pair #1: server 0 <- requester 2 70" {
		t.Fatalf("served %d elements, imbalance %v, hottest %q; want 130, %v and server 0 <- requester 2 70", total, imb, hot[0], 120*4/130.)
	}

	var sb strings.Builder
	if err := c.CollectiveTable().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GetD") || !strings.Contains(sb.String(), "90.0") {
		t.Fatalf("collective table missing kind or kept %%:\n%s", sb.String())
	}

	c.Reset()
	if c.Calls("GetD") != 0 || c.Imbalance() != 1 || c.PlanBuilds() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// loadOf returns what c's serve-load readers say: the total served
// elements, Imbalance, and LoadTable's three hot-pair rows with their
// padding squeezed out.
func loadOf(c *Collector) (total int64, imb float64, hot []string) {
	for _, l := range c.serveLoad {
		total += l
	}
	var sb strings.Builder
	c.LoadTable(3).Fprint(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "hot pair") {
			hot = append(hot, strings.Join(strings.Fields(line), " "))
		}
	}
	return total, c.Imbalance(), hot
}

// realRunGraph is the weighted input of the registry runs below.
func realRunGraph() *graph.Graph {
	return graph.WithRandomWeights(graph.Random(600, 2400, 5), 5)
}

// runKernel runs the registry kernel on g (a random chain over its
// vertices for a list kernel) at 2 x 2 with col attached.
func runKernel(t *testing.T, rt *pgas.Runtime, col *Collector, kernel string, g *graph.Graph) {
	t.Helper()
	comm := collective.NewComm(rt)
	comm.SetTracer(col)
	spec := serve.KernelSpec{Kernel: kernel, Graph: g, Col: collective.Optimized(2), Compact: true}
	if serve.TakesList(kernel) {
		spec.List = listrank.RandomList(g.N, 1)
	}
	if _, err := serve.RunKernel(rt, comm, spec); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorOnRealRun(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	col := NewCollector(rt.NumThreads())
	comm.SetTracer(col)

	g := graph.Random(400, 1200, 5)
	res := cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	if res.Components <= 0 {
		t.Fatal("run failed")
	}
	if col.Calls("GetD") == 0 {
		t.Fatal("no GetD calls recorded")
	}
	if col.Calls("SetDMin") == 0 {
		t.Fatal("no SetDMin calls recorded")
	}
	if col.Imbalance() < 1 {
		t.Fatalf("imbalance %v below 1", col.Imbalance())
	}
	// A second run on the warm Comm must not grow scratch: the hot path
	// is allocation-free in steady state.
	g0 := col.Growths("GetD") + col.Growths("SetDMin")
	res2 := cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2), Compact: true})
	if res2.Components != res.Components {
		t.Fatalf("warm rerun changed result: %d vs %d", res2.Components, res.Components)
	}
	if g1 := col.Growths("GetD") + col.Growths("SetDMin"); g1 != g0 {
		t.Fatalf("warm rerun grew collective scratch: %d new growths", g1-g0)
	}
	// Detaching stops recording.
	comm.SetTracer(nil)
	before := col.Calls("GetD")
	cc.Coalesced(rt, comm, g, &cc.Options{Col: collective.Optimized(2)})
	if col.Calls("GetD") != before {
		t.Fatal("detached tracer still recorded")
	}

	// Every collective kind at 2 x 2: cc/coalesced runs GetD,
	// GetDCombined (counted as GetD) and SetDMin, listrank/cgm SetD,
	// bfs/coalesced Exchange, sssp/delta-stepping ExchangePairs and
	// listrank/wyllie reuses its plans. The values were recorded when the
	// serve loads, builds and reuses reached the Collector through
	// separate tracer methods, one call per transfer.
	g = realRunGraph()
	for _, tc := range []struct {
		kernel         string
		calls          map[string]int64
		builds, reuses int64
		total          int64
		imb            float64
		hot            []string
	}{
		{"cc/coalesced", map[string]int64{"GetD": 8, "SetDMin": 2}, 10, 0, 10670, 1.018181818181818,
			[]string{"server 3 <- requester 1 702", "server 2 <- requester 1 694", "server 1 <- requester 2 692"}},
		{"listrank/cgm", map[string]int64{"GetD": 9, "SetD": 6}, 15, 0, 3400, 1.0494117647058823,
			[]string{"server 0 <- requester 1 260", "server 3 <- requester 2 254", "server 2 <- requester 2 250"}},
		{"bfs/coalesced", map[string]int64{"Exchange": 6}, 6, 0, 4800, 1.0366666666666666,
			[]string{"server 0 <- requester 0 374", "server 1 <- requester 1 330", "server 2 <- requester 2 330"}},
		{"sssp/delta-stepping", map[string]int64{"ExchangePairs": 51}, 51, 0, 9662, 1.0399503208445458,
			[]string{"server 0 <- requester 0 756", "server 1 <- requester 1 664", "server 2 <- requester 2 664"}},
		{"listrank/wyllie", map[string]int64{"GetD": 22}, 11, 11, 22264, 1.3481854114265182,
			[]string{"server 1 <- requester 2 1,928", "server 1 <- requester 0 1,916", "server 1 <- requester 3 1,876"}},
	} {
		rt := newRuntime(t, 2, 2)
		col := NewCollector(rt.NumThreads())
		runKernel(t, rt, col, tc.kernel, g)
		for _, kind := range []string{"GetD", "SetD", "SetDMin", "Exchange", "ExchangePairs"} {
			if got := col.Calls(kind); got != tc.calls[kind] {
				t.Errorf("%s: %d %s calls, want %d", tc.kernel, got, kind, tc.calls[kind])
			}
		}
		if b, r := col.PlanBuilds(), col.PlanReuses(); b != tc.builds || r != tc.reuses {
			t.Errorf("%s: %d plan builds, %d reuses; want %d, %d", tc.kernel, b, r, tc.builds, tc.reuses)
		}
		total, imb, hot := loadOf(col)
		if total != tc.total || imb != tc.imb {
			t.Errorf("%s: %d served elements at imbalance %v; want %d at %v", tc.kernel, total, imb, tc.total, tc.imb)
		}
		for i, want := range tc.hot {
			if want = fmt.Sprintf("hot pair #%d: %s", i+1, want); i >= len(hot) || hot[i] != want {
				t.Errorf("%s: hot pairs %q, want %q at %d", tc.kernel, hot, want, i)
				break
			}
		}
	}
}

// TestChaosReplayCountsOnce: a serve phase replayed under armed chaos
// serves its requesters once, so the serve loads of a run with dropped
// transfers equal those of the same run without them.
func TestChaosReplayCountsOnce(t *testing.T) {
	g := realRunGraph()
	clean, chaos := newRuntime(t, 2, 2), newRuntime(t, 2, 2)
	chaos.ArmChaos(pgas.ChaosConfig{Seed: 7, DropRate: 0.2, MaxAttempts: 64, BackoffNS: 1})
	cleanCol, chaosCol := NewCollector(4), NewCollector(4)
	runKernel(t, clean, cleanCol, "cc/coalesced", g)
	runKernel(t, chaos, chaosCol, "cc/coalesced", g)
	if st := chaos.ChaosStats(); st.Drops == 0 || st.Retries == 0 {
		t.Fatalf("chaos run saw %d drops and %d retries; the test needs both", st.Drops, st.Retries)
	}
	wantTotal, wantImb, wantHot := loadOf(cleanCol)
	total, imb, hot := loadOf(chaosCol)
	if total != wantTotal || imb != wantImb || !slices.Equal(hot, wantHot) {
		t.Errorf("under dropped transfers: %d served at imbalance %v, hot %q; clean: %d at %v, hot %q",
			total, imb, hot, wantTotal, wantImb, wantHot)
	}
	if b, r := chaosCol.PlanBuilds(), cleanCol.PlanBuilds(); b != r {
		t.Errorf("under dropped transfers: %d plan builds, %d clean", b, r)
	}
}

func TestTracerSeesHotspot(t *testing.T) {
	// A star graph without offload: the label of the hub (vertex 0)
	// concentrates requests on thread 0's block.
	rt := newRuntime(t, 4, 1)
	comm := collective.NewComm(rt)
	col := NewCollector(rt.NumThreads())
	comm.SetTracer(col)
	g := graph.Star(2000)
	opts := &cc.Options{Col: &collective.Options{Circular: true}} // no offload
	cc.Coalesced(rt, comm, g, opts)
	if imb := col.Imbalance(); imb < 1.5 {
		t.Fatalf("star-graph hotspot not visible: imbalance %v", imb)
	}
}

// Requests returns, for kind and summed over all participants, the
// requests the callers offered and the requests delivered to the owners
// after the request filter (offload drops, one-shot SetDMin combining,
// GetDCombined's one request per index — counted under GetD).
func (c *Collector) Requests(kind string) (offered, kept int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.calls[kind]; ok {
		return st.elements, st.kept
	}
	return 0, 0
}

// Growths returns the summed scratch backing-array allocations recorded
// for kind (zero in steady state; see Collective).
func (c *Collector) Growths(kind string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.calls[kind]; ok {
		return st.growths
	}
	return 0
}
