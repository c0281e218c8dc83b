package listrank

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/trace"
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

func fixedList(succ ...int32) *List {
	return &List{N: int64(len(succ)), Succ: succ}
}

func TestValidate(t *testing.T) {
	good := []*List{
		fixedList(),           // empty
		fixedList(0),          // singleton
		fixedList(1, 2, 2),    // chain 0->1->2
		fixedList(0, 0, 1),    // chain 2->1->0
		fixedList(0, 1, 0, 1), // two chains
		RandomList(100, 3),    // random chain
		Chains(100, 7, 4),     // several chains
	}
	for i, l := range good {
		if err := l.Validate(); err != nil {
			t.Errorf("good list %d rejected: %v", i, err)
		}
	}
	bad := []*List{
		{N: 2, Succ: []int32{1}}, // wrong length
		fixedList(1, 0),          // 2-cycle
		fixedList(1, 2, 0),       // 3-cycle
		{N: 1, Succ: []int32{5}}, // out of range
		fixedList(2, 2, 2),       // node 2 has two predecessors
		fixedList(1, 1, 3, 4, 2), // chain 0->1 beside a 3-cycle
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad list %d accepted", i)
		}
	}
}

// TestValidateIsLinear: RunKernel validates the list on every dispatch, so
// one chain over a million nodes — the worst case of a walk per node — must
// cost a pass, not n²/2 pointer chases (which would not finish).
func TestValidateIsLinear(t *testing.T) {
	const n = 1 << 20
	l := RandomList(n, 5)
	start := time.Now()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Validate took %v on one %d-node chain", d, n)
	}
	ranks := seqRank(l)
	head, tail := slices.Index(ranks, n-1), slices.Index(ranks, 0)
	l.Succ[tail] = int32(head) // close the chain into one n-cycle
	if err := l.Validate(); err == nil {
		t.Fatal("a cycle through every node accepted")
	}
}

func TestSeqRankKnown(t *testing.T) {
	// Chain 0 -> 1 -> 2: rank measures distance to the tail (2).
	ranks := seqRank(fixedList(1, 2, 2))
	want := []int64{2, 1, 0}
	if !slices.Equal(ranks, want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
	// Two chains: 0->1 and 3->2.
	ranks = seqRank(fixedList(1, 1, 2, 2))
	want = []int64{1, 0, 0, 1}
	if !slices.Equal(ranks, want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
	// All singletons.
	ranks = seqRank(fixedList(0, 1, 2))
	if !slices.Equal(ranks, []int64{0, 0, 0}) {
		t.Fatalf("singleton ranks = %v", ranks)
	}
}

func TestRandomListStructure(t *testing.T) {
	l := RandomList(500, 9)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ranks := seqRank(l)
	// One chain threading all nodes: ranks are a permutation of 0..n-1.
	seen := make([]bool, 500)
	for _, r := range ranks {
		if r < 0 || r >= 500 || seen[r] {
			t.Fatalf("ranks are not a permutation: %d repeated or out of range", r)
		}
		seen[r] = true
	}
}

func TestChainsStructure(t *testing.T) {
	l := Chains(100, 5, 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	tails := 0
	for i, s := range l.Succ {
		if int64(s) == int64(i) {
			tails++
		}
	}
	if tails != 5 {
		t.Fatalf("%d tails, want 5", tails)
	}
}

func distributedVariants() map[string]func(rt *pgas.Runtime, l *List) *Result {
	opt := collective.Optimized(4)
	return map[string]func(rt *pgas.Runtime, l *List) *Result{
		"wyllie-base": func(rt *pgas.Runtime, l *List) *Result {
			return Wyllie(rt, collective.NewComm(rt), l, nil)
		},
		"wyllie-optimized": func(rt *pgas.Runtime, l *List) *Result {
			return Wyllie(rt, collective.NewComm(rt), l, opt)
		},
		"wyllie-naive": func(rt *pgas.Runtime, l *List) *Result {
			return WyllieNaive(rt, l)
		},
		"cgm": func(rt *pgas.Runtime, l *List) *Result {
			return CGM(rt, collective.NewComm(rt), l, opt)
		},
	}
}

func TestDistributedMatchSequential(t *testing.T) {
	lists := map[string]*List{
		"empty":      fixedList(),
		"singleton":  fixedList(0),
		"pair":       fixedList(1, 1),
		"triple":     fixedList(1, 2, 2),
		"reverse":    fixedList(0, 0, 1, 2),
		"random":     RandomList(400, 5),
		"chains":     Chains(300, 6, 7),
		"singletons": fixedList(0, 1, 2, 3, 4, 5, 6, 7),
	}
	geos := []struct{ nodes, tpn int }{{1, 1}, {1, 4}, {4, 1}, {3, 2}}
	for lname, l := range lists {
		want := seqRank(l)
		for _, geo := range geos {
			for vname, run := range distributedVariants() {
				t.Run(lname+"/"+vname, func(t *testing.T) {
					rt := newRuntime(t, geo.nodes, geo.tpn)
					res := run(rt, l)
					if !slices.Equal(res.Ranks, want) {
						t.Fatalf("ranks differ from sequential\n got %v\nwant %v",
							head(res.Ranks), head(want))
					}
				})
			}
		}
	}
}

func head(s []int64) []int64 {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

func TestDistributedProperty(t *testing.T) {
	rt := newRuntime(t, 3, 2)
	comm := collective.NewComm(rt)
	check := func(seed uint64, nRaw uint8, kRaw uint8) bool {
		n := int64(nRaw) + 1
		k := int64(kRaw)%n + 1
		l := Chains(n, k, seed)
		want := seqRank(l)
		w := Wyllie(rt, comm, l, collective.Optimized(2))
		c := CGM(rt, comm, l, collective.Optimized(2))
		return slices.Equal(w.Ranks, want) && slices.Equal(c.Ranks, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWyllieRoundsLogarithmic(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	l := RandomList(1024, 3)
	res := Wyllie(rt, collective.NewComm(rt), l, collective.Optimized(2))
	// ceil(log2(1024)) = 10; allow slack for the retirement round.
	if res.Rounds > 12 {
		t.Fatalf("Wyllie took %d rounds for n=1024, want ~10", res.Rounds)
	}
}

func TestCGMIdlesDuringSequentialStep(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	l := RandomList(2000, 11)
	res := CGM(rt, collective.NewComm(rt), l, collective.Optimized(2))
	// The sequential step must show up as wait time on the idle threads.
	if res.Run.SumByCategory[sim.CatWait] <= 0 {
		t.Fatal("CGM showed no idle time despite its sequential step")
	}
}

func TestSeqRankTimed(t *testing.T) {
	model := sim.NewModel(machine.Sequential())
	l := RandomList(5000, 1)
	ranks, ns := SeqRankTimed(l, model)
	if ns <= 0 {
		t.Fatal("no time charged")
	}
	if !slices.Equal(ranks, seqRank(l)) {
		t.Fatal("timed ranks differ")
	}
}

// TestWylliePlansOncePerRound: a round gathers S[S[i]] and R[S[i]] at the
// same indices, so every thread builds one plan per round and executes it
// twice — one build and one reuse a round, two GetDs.
func TestWylliePlansOncePerRound(t *testing.T) {
	rt := newRuntime(t, 4, 2)
	comm := collective.NewComm(rt)
	tr := trace.NewCollector(rt.NumThreads())
	comm.SetTracer(tr)
	res := Wyllie(rt, comm, RandomList(1024, 3), collective.Optimized(2))
	rounds := int64(res.Rounds)
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	if b, r, g := tr.PlanBuilds(), tr.PlanReuses(), tr.Calls("GetD"); b != rounds || r != rounds || g != 2*rounds {
		t.Fatalf("%d rounds: %d plan builds, %d reuses and %d GetDs per thread; want %d, %d and %d",
			rounds, b, r, g, rounds, rounds, 2*rounds)
	}
}

func TestCGMMatchesAtManyGeometries(t *testing.T) {
	l := RandomList(700, 21)
	want := seqRank(l)
	for _, geo := range []struct{ nodes, tpn int }{{2, 1}, {2, 4}, {8, 1}, {4, 4}} {
		rt := newRuntime(t, geo.nodes, geo.tpn)
		res := CGM(rt, collective.NewComm(rt), l, collective.Optimized(2))
		if !slices.Equal(res.Ranks, want) {
			t.Fatalf("p=%d t=%d: CGM ranks wrong", geo.nodes, geo.tpn)
		}
	}
}
