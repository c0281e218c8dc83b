package trace

import (
	"strings"
	"testing"
	"time"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
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
	c.Collective("GetD", 0, d, 100, 100, 1500*time.Nanosecond, 2)
	c.Collective("GetD", 1, d, 100, 60, 500*time.Nanosecond, 1)
	c.Transfer(0, 1, 50)
	c.Transfer(0, 2, 70)
	c.Transfer(3, 0, 10)

	if got := c.Calls("GetD"); got != 0 {
		// 2 participations / 4 threads rounds down; record the rest.
		_ = got
	}
	c.Collective("GetD", 2, d, 100, 100, 0, 0)
	c.Collective("GetD", 3, d, 100, 100, 0, 0)
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
	if imb := c.Imbalance(); imb <= 1 {
		t.Fatalf("skewed loads must show imbalance > 1, got %v", imb)
	}

	var sb strings.Builder
	if err := c.CollectiveTable().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GetD") || !strings.Contains(sb.String(), "90.0") {
		t.Fatalf("collective table missing kind or kept %%:\n%s", sb.String())
	}
	sb.Reset()
	if err := c.LoadTable(2).Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hot pair") {
		t.Fatal("load table missing hot pairs")
	}

	c.Reset()
	if c.Calls("GetD") != 0 || c.Imbalance() != 1 {
		t.Fatal("Reset did not clear")
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
