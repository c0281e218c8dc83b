package sim

import (
	"math"
	"testing"
	"testing/quick"

	"pgasgraph/internal/machine"
)

func model() *Model { return NewModel(machine.PaperCluster()) }

func TestCategoryString(t *testing.T) {
	want := map[Category]string{
		CatComm: "comm", CatSort: "sort", CatCopy: "copy",
		CatIrregular: "irregular", CatSetup: "setup", CatWork: "work",
		CatWait: "wait",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Category(99).String() != "unknown" {
		t.Error("out-of-range category not unknown")
	}
}

func TestClockCharge(t *testing.T) {
	var c Clock
	c.Charge(CatComm, 100)
	c.Charge(CatSort, 50)
	c.Charge(CatComm, -10) // ignored
	if c.NS != 150 {
		t.Fatalf("NS = %v, want 150", c.NS)
	}
	if c.ByCategory[CatComm] != 100 || c.ByCategory[CatSort] != 50 {
		t.Fatalf("breakdown wrong: %v", c.ByCategory)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Charge(CatWork, 100)
	c.AdvanceTo(250)
	if c.NS != 250 || c.ByCategory[CatWait] != 150 {
		t.Fatalf("advance wrong: NS=%v wait=%v", c.NS, c.ByCategory[CatWait])
	}
	c.AdvanceTo(200) // never backward
	if c.NS != 250 {
		t.Fatal("AdvanceTo moved clock backward")
	}
}

func TestBreakdownTotalAndScale(t *testing.T) {
	b := Breakdown{1, 2, 3}
	if b.Total() != 6 {
		t.Fatalf("Total = %v", b.Total())
	}
	b.Scale(2)
	if b.Total() != 12 {
		t.Fatalf("scaled Total = %v", b.Total())
	}
	var other Breakdown
	other.Add(&b)
	if other.Total() != 12 {
		t.Fatalf("Add wrong: %v", other)
	}
}

func TestSeqScanLinear(t *testing.T) {
	m := model()
	if m.SeqScan(0) != 0 {
		t.Fatal("SeqScan(0) != 0")
	}
	small, large := m.SeqScan(1000), m.SeqScan(100000)
	if large <= small {
		t.Fatal("SeqScan not increasing")
	}
	// Asymptotically linear in k (latency term amortizes).
	ratio := (m.SeqScan(2_000_000) - m.SeqScan(1_000_000)) / (m.SeqScan(1_000_000) - m.SeqScan(0))
	if math.Abs(ratio-1) > 0.01 {
		t.Fatalf("SeqScan slope not constant: %v", ratio)
	}
}

func TestMissFraction(t *testing.T) {
	m := model()
	z := m.Config().CacheBytes / ElemBytes
	if m.MissFraction(z) != 0 {
		t.Fatal("block fitting cache should not miss")
	}
	if f := m.MissFraction(2 * z); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("MissFraction(2z) = %v, want 0.5", f)
	}
	if f := m.MissFraction(100 * z); f < 0.98 {
		t.Fatalf("huge block miss fraction %v too small", f)
	}
}

func TestIrregularAccessMonotone(t *testing.T) {
	m := model()
	check := func(kRaw, nbRaw uint16) bool {
		k, nb := int64(kRaw)+1, int64(nbRaw)+1
		ns1, _ := m.IrregularAccess(k, nb)
		ns2, _ := m.IrregularAccess(k+100, nb)
		return ns2 > ns1 && ns1 > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIrregularAccessDistinct(t *testing.T) {
	m := model()
	// A hot access pattern (few distinct) into a cache-resident block
	// must be far cheaper than a cold scattered one.
	nb := m.Config().CacheBytes / ElemBytes / 2
	hot, _ := m.IrregularAccessDistinct(100000, 3, nb)
	cold, _ := m.IrregularAccessDistinct(100000, 100000, 100*nb)
	if hot*5 > cold {
		t.Fatalf("hot %v not much cheaper than cold %v", hot, cold)
	}
	// distinct is clamped to k.
	a, _ := m.IrregularAccessDistinct(10, 50, nb)
	b, _ := m.IrregularAccessDistinct(10, 10, nb)
	if a != b {
		t.Fatal("distinct not clamped to k")
	}
}

func TestDensePermuteCheaperThanScatter(t *testing.T) {
	m := model()
	k := int64(1 << 20)
	dense, _ := m.DensePermute(k)
	scatter, _ := m.IrregularAccess(k, k)
	if dense >= scatter {
		t.Fatalf("dense permute %v not cheaper than scatter %v", dense, scatter)
	}
}

func TestSelectionPassesLinearInVT(t *testing.T) {
	m := model()
	p1 := m.SelectionPasses(100000, 1)
	p4 := m.SelectionPasses(100000, 4)
	if math.Abs(p4-4*p1) > 1e-6 {
		t.Fatalf("passes not linear: %v vs 4*%v", p4, p1)
	}
	if m.SelectionPasses(0, 5) != 0 || m.SelectionPasses(5, 0) != 0 {
		t.Fatal("degenerate passes should be free")
	}
}

func TestMessageCoalescingWins(t *testing.T) {
	m := model()
	// One 1000-element message must be far cheaper than 1000 singleton
	// messages — the entire premise of the paper.
	bulk := m.Message(1000*ElemBytes, 1)
	singles := 1000 * m.Message(ElemBytes, 1)
	if bulk*20 > singles {
		t.Fatalf("coalescing gain too small: bulk %v vs singles %v", bulk, singles)
	}
}

func TestRDMAReducesLargeMessages(t *testing.T) {
	cfg := machine.PaperCluster()
	cfg.RDMA = true
	rdma := NewModel(cfg)
	plain := model()
	big := cfg.RDMAThresholdBytes * 2
	if rdma.Message(big, 1) >= plain.Message(big, 1) {
		t.Fatal("RDMA did not reduce large-message cost")
	}
	small := int64(64)
	if rdma.Message(small, 1) != plain.Message(small, 1) {
		t.Fatal("RDMA changed small-message cost")
	}
}

func TestSmallOpSerialization(t *testing.T) {
	m := model()
	one := m.SmallOp(1, 16, 1)
	sixteen := m.SmallOp(16, 16, 1)
	if sixteen <= one {
		t.Fatal("blocking small ops must serialize across node threads")
	}
}

func TestCongestionFactors(t *testing.T) {
	m := model()
	th := m.Config().A2AThreshold
	if m.smallMsgFactor(th) != 1 || m.a2aBurstFactor(th) != 1 {
		t.Fatal("factor below threshold must be 1")
	}
	if m.smallMsgFactor(2*th) <= 1 || m.a2aBurstFactor(2*th) <= 1 {
		t.Fatal("factor above threshold must exceed 1")
	}
	// The synchronized burst is penalized harder than scattered traffic.
	if m.a2aBurstFactor(2*th) <= m.smallMsgFactor(2*th) {
		t.Fatal("A2A burst should outgrow scattered small-message congestion")
	}
}

func TestBarrierGrowsWithThreads(t *testing.T) {
	m := model()
	if m.Barrier(256) <= m.Barrier(16) {
		t.Fatal("barrier cost must grow with thread count")
	}
}

func TestLockContention(t *testing.T) {
	m := model()
	if m.Lock(true) <= m.Lock(false) {
		t.Fatal("contended lock must cost more")
	}
}

// TestRemoteLocalGap verifies the paper's §III headline: a naive remote
// access costs >20x a local irregular access.
func TestRemoteLocalGap(t *testing.T) {
	m := model()
	remote := m.SmallOp(1, 16, 2)
	local, _ := m.IrregularAccess(1, 100_000_000)
	if remote < 20*local {
		t.Fatalf("remote/local gap %.1fx, paper derives >20x", remote/local)
	}
}

func TestMissCostPagesToDisk(t *testing.T) {
	cfg := machine.PaperCluster()
	cfg.NodeMemoryBytes = 1 << 20 // 1 MB node memory
	m := NewModel(cfg)
	inMem := int64(64 << 10 / ElemBytes) // 64 KB block
	paged := int64(16 << 20 / ElemBytes) // 16 MB block
	nsMem, _ := m.IrregularAccess(1000, inMem)
	nsDisk, _ := m.IrregularAccess(1000, paged)
	if nsDisk < 100*nsMem {
		t.Fatalf("paged access (%v) not drastically slower than resident (%v)", nsDisk, nsMem)
	}
	// The default 64 GB memory never pages at bench scales.
	def := NewModel(machine.PaperCluster())
	a, _ := def.IrregularAccess(1000, paged)
	b, _ := def.IrregularAccess(1000, 1<<30/ElemBytes)
	if a > b {
		t.Fatal("default config should not page")
	}
}

func TestDensePermuteUsesLineSize(t *testing.T) {
	cfg := machine.PaperCluster()
	m1 := NewModel(cfg)
	cfg.CacheLineBytes = 8 // one element per line: every write misses
	m2 := NewModel(cfg)
	_, miss1 := m1.DensePermute(1 << 16)
	_, miss2 := m2.DensePermute(1 << 16)
	if miss2 <= miss1 {
		t.Fatal("smaller lines must mean more permute misses")
	}
}
