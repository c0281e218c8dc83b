package experiments

import (
	"strings"
	"testing"

	"pgasgraph/internal/machine"
)

// smokeCfg is a tiny, fast configuration. Full shape assertions are
// validated at -scale 0.01 by `pgasbench -check all`; these tests assert
// the orderings that must hold at any scale.
func smokeCfg() Config {
	return Config{Scale: 0.002}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 0.01 || c.Nodes != 16 || c.Seed != 42 || c.CacheScale != 3.5 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Base == nil {
		t.Fatal("base machine not set")
	}
}

func TestConfigN(t *testing.T) {
	c := Config{Scale: 0.01}.WithDefaults()
	if c.N(100_000_000) != 1_000_000 {
		t.Fatalf("N scaling wrong: %d", c.N(100_000_000))
	}
	if c.N(1000) != 256 {
		t.Fatalf("floor not applied: %d", c.N(1000))
	}
}

func TestConfigMachineScalesCache(t *testing.T) {
	c := Config{Scale: 0.01}.WithDefaults()
	m := c.Machine(4, 2)
	if m.Nodes != 4 || m.ThreadsPerNode != 2 {
		t.Fatal("geometry not applied")
	}
	full := machine.PaperCluster()
	if m.CacheBytes >= full.CacheBytes {
		t.Fatal("cache not scaled down")
	}
	if m.CacheBytes < 4096 {
		t.Fatal("cache floor not applied")
	}
}

func TestFig02Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := RunFig02(smokeCfg())
	if len(f.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.NaiveNS < 5*r.SMPNS {
			t.Errorf("%s: naive (%.0f) not clearly slower than SMP (%.0f)", r.Name, r.NaiveNS, r.SMPNS)
		}
	}
	var sb strings.Builder
	if err := f.Table().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("table missing title")
	}
}

func TestFig03Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := runFig03(smokeCfg())
	if f.CCNS >= f.OrigNS {
		t.Fatalf("coalesced CC (%.0f) not faster than naive (%.0f)", f.CCNS, f.OrigNS)
	}
	if f.SVNS <= f.CCNS {
		t.Fatalf("SV (%.0f) should be slower than CC (%.0f)", f.SVNS, f.CCNS)
	}
	if f.Table().Rows() != 3 {
		t.Fatal("table should have 3 rows")
	}
}

func TestFig05Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := runFig05(smokeCfg())
	if len(f.Bars) != 6 {
		t.Fatalf("%d bars, want 6", len(f.Bars))
	}
	first, last := f.Bars[0], f.Bars[len(f.Bars)-1]
	if last.TotalNS >= first.TotalNS {
		t.Fatalf("full optimization (%.0f) not faster than base (%.0f)", last.TotalNS, first.TotalNS)
	}
	if f.Table().Rows() != 6 {
		t.Fatal("table rows wrong")
	}
}

func TestFig06HybridComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smokeCfg()
	r := runFig05(cfg)
	h := RunFig06(cfg)
	// The paper: hubs create no hotspot; optimized totals stay within a
	// small factor of the random graph's.
	rOpt := r.Bars[len(r.Bars)-1].TotalNS
	hOpt := h.Bars[len(h.Bars)-1].TotalNS
	if hOpt > 3*rOpt || rOpt > 3*hOpt {
		t.Fatalf("hybrid (%.0f) and random (%.0f) optimized times diverge", hOpt, rOpt)
	}
}

func TestFig07Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := runFig07(smokeCfg())
	if len(f.NS) != len(f.Threads) {
		t.Fatal("series length mismatch")
	}
	for i, v := range f.NS {
		if v <= 0 {
			t.Fatalf("threads=%d: non-positive time", f.Threads[i])
		}
	}
	if f.SMPNS <= 0 || f.SeqNS <= 0 {
		t.Fatal("reference lines missing")
	}
	// The cliff: 16 threads/node must be worse than 8.
	if f.NS[4] <= f.NS[3] {
		t.Fatalf("no degradation at 16 threads/node: %.0f vs %.0f", f.NS[4], f.NS[3])
	}
}

func TestFig09Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := runFig09(smokeCfg())
	b := f.Best()
	if f.NS[b] >= f.SMPNS {
		t.Fatalf("best MST (%.0f) not faster than MST-SMP (%.0f)", f.NS[b], f.SMPNS)
	}
	if f.SeqNS <= 0 {
		t.Fatal("Kruskal line missing")
	}
}

func TestFig04Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := RunFig04(smokeCfg())
	if len(f.Inputs) != 3 {
		t.Fatalf("%d inputs, want 3", len(f.Inputs))
	}
	for _, in := range f.Inputs {
		if len(in.NS) != len(f.TPrimes) {
			t.Fatal("sweep length mismatch")
		}
		if in.SMPNS <= 0 {
			t.Fatal("missing SMP reference")
		}
	}
	if f.Table().Rows() != 3 {
		t.Fatal("table rows wrong")
	}
}

func TestFig08And10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f8 := runFig08(smokeCfg())
	if f8.NS[4] <= f8.NS[3] {
		t.Fatal("fig8: no 16-thread degradation")
	}
	f10 := runFig10(smokeCfg())
	if f10.Best() > 4 || f10.NS[f10.Best()] >= f10.SMPNS {
		t.Fatal("fig10: cluster should beat MST-SMP somewhere")
	}
	if f8.Table().Rows() == 0 || f10.Table().Rows() == 0 {
		t.Fatal("tables empty")
	}
}

func TestListRankSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runListRank(smokeCfg())
	if len(e.Wyllie) != len(e.Nodes) || len(e.CGM) != len(e.Nodes) {
		t.Fatal("series length mismatch")
	}
	if e.NaiveNS <= e.Wyllie[len(e.Wyllie)-1] {
		t.Fatal("naive should be slowest")
	}
	if e.Table().Rows() != len(e.Nodes)+2 {
		t.Fatal("table rows wrong")
	}
}

func TestBFSExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runBFS(smokeCfg())
	if err := e.CheckShape(); err != nil {
		t.Fatalf("bfs shape should hold at any scale: %v", err)
	}
}

func TestCCMergeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runCCMerge(smokeCfg())
	if len(e.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(e.Rows))
	}
	for _, r := range e.Rows {
		if r.CoalescedNS <= 0 || r.MergeNS <= 0 {
			t.Fatal("missing measurements")
		}
	}
	if e.Table().Rows() != 5 {
		t.Fatal("table rows wrong")
	}
}

func TestOutOfCoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runOutOfCore(smokeCfg())
	if err := e.CheckShape(); err != nil {
		t.Fatalf("out-of-core shape should hold at any scale: %v", err)
	}
	if e.Table().Rows() != len(e.Rows) {
		t.Fatal("table rows wrong")
	}
}

func TestScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runScaling(smokeCfg())
	if len(e.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(e.Rows))
	}
	if e.Rows[0].Nodes != 1 || e.Rows[4].Nodes != 16 {
		t.Fatal("node sweep wrong")
	}
	if e.Table().Rows() != 5 {
		t.Fatal("table rows wrong")
	}
}

func TestSSSPExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := runSSSP(smokeCfg())
	if err := e.CheckShape(); err != nil {
		t.Fatalf("sssp delta shape should hold at any scale: %v", err)
	}
}
