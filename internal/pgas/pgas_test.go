package pgas

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/sim"
)

func testRT(t *testing.T, nodes, tpn int) *Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := machine.PaperCluster()
	cfg.Nodes = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestThreadGeometry(t *testing.T) {
	rt := testRT(t, 3, 4)
	if rt.NumThreads() != 12 || rt.Nodes() != 3 || rt.ThreadsPerNode() != 4 {
		t.Fatal("geometry wrong")
	}
	seen := make([]bool, 12)
	rt.Run(func(th *Thread) {
		if th.Node != th.ID/4 || th.Local != th.ID%4 {
			t.Errorf("thread %d: node %d local %d", th.ID, th.Node, th.Local)
		}
		seen[th.ID] = true
	})
	for id, ok := range seen {
		if !ok {
			t.Fatalf("thread %d never ran", id)
		}
	}
}

func TestSpanPartition(t *testing.T) {
	check := func(totalRaw uint16, partsRaw uint8) bool {
		total := int64(totalRaw)
		parts := int(partsRaw%64) + 1
		var covered int64
		prevHi := int64(0)
		for i := 0; i < parts; i++ {
			lo, hi := Span(total, parts, i)
			if lo != prevHi || hi < lo {
				return false
			}
			if (hi-lo) < total/int64(parts) || (hi-lo) > total/int64(parts)+1 {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == total && prevHi == total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedArrayOwnership(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("t", 10)
	// blk = ceil(10/4) = 3: thread 0 owns [0,3), 1 [3,6), 2 [6,9), 3 [9,10).
	wantOwner := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOwner {
		if got := a.Owner(int64(i)); got != w {
			t.Fatalf("Owner(%d) = %d, want %d", i, got, w)
		}
	}
	lo, hi := a.ThreadCover(3)
	if lo != 9 || hi != 10 {
		t.Fatalf("ThreadCover(3) = [%d,%d), want [9,10)", lo, hi)
	}
	lo, hi = a.ThreadCover(2)
	if lo != 6 || hi != 9 {
		t.Fatalf("ThreadCover(2) = [%d,%d)", lo, hi)
	}
	if a.ownerNode(0) != 0 || a.ownerNode(9) != 1 {
		t.Fatal("ownerNode wrong")
	}
}

func TestSharedArrayBoundsPanic(t *testing.T) {
	rt := testRT(t, 1, 2)
	a := rt.NewSharedArray("t", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Owner did not panic")
		}
	}()
	a.Owner(4)
}

func TestGetPutRoundTrip(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("t", 100)
	rt.RunOneSided(func(th *Thread) {
		lo, hi := th.Span(100)
		for i := lo; i < hi; i++ {
			th.Put(a, i, i*i, sim.CatComm)
		}
		th.Barrier()
		// Read everything, including remote elements.
		for i := int64(0); i < 100; i++ {
			if v := th.Get(a, i, sim.CatComm); v != i*i {
				t.Errorf("Get(%d) = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestBulkMatchesSingles(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("t", 64)
	a.FillIdentity()
	rt.Run(func(th *Thread) {
		if th.ID != 0 {
			return
		}
		dst := make([]int64, 16)
		th.GetBulk(a, 48, dst, sim.CatComm) // remote block
		for j, v := range dst {
			if v != int64(48+j) {
				t.Errorf("GetBulk[%d] = %d", j, v)
			}
		}
	})
}

func TestPutMinMonotone(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("t", 4)
	a.Fill(100)
	rt.RunOneSided(func(th *Thread) {
		th.PutMin(a, 0, int64(50-th.ID), sim.CatComm)
		th.PutMin(a, 1, 200, sim.CatComm) // larger: no-op
	})
	if got := a.LoadRaw(0); got != 47 { // 50-3 from thread 3
		t.Fatalf("PutMin result %d, want 47", got)
	}
	if a.LoadRaw(1) != 100 {
		t.Fatal("PutMin raised a value")
	}
}

func TestAtomicMinConcurrent(t *testing.T) {
	rt := testRT(t, 4, 4)
	a := rt.NewSharedArray("t", 1)
	a.Fill(1 << 40)
	rt.RunOneSided(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.AtomicMin(a, 0, int64(th.ID*1000+i), sim.CatComm)
		}
	})
	if got := a.LoadRaw(0); got != 0 {
		t.Fatalf("concurrent AtomicMin = %d, want 0", got)
	}
}

func TestBarrierClockSync(t *testing.T) {
	rt := testRT(t, 2, 2)
	rt.Run(func(th *Thread) {
		// Thread 3 is far ahead; after the barrier everyone must be at
		// least at its clock.
		if th.ID == 3 {
			th.Clock.Charge(sim.CatWork, 1e6)
		}
		th.Barrier()
		if th.Clock.NS < 1e6 {
			t.Errorf("thread %d clock %v below straggler after barrier", th.ID, th.Clock.NS)
		}
	})
}

func TestBarrierWaitAttribution(t *testing.T) {
	rt := testRT(t, 1, 2)
	res := rt.Run(func(th *Thread) {
		if th.ID == 0 {
			th.Clock.Charge(sim.CatWork, 5e5)
		}
		th.Barrier()
	})
	if res.SumByCategory[sim.CatWait] < 4e5 {
		t.Fatalf("wait not attributed: %v", res.SumByCategory[sim.CatWait])
	}
}

func TestRunResultAggregation(t *testing.T) {
	rt := testRT(t, 2, 2)
	res := rt.Run(func(th *Thread) {
		th.Clock.Charge(sim.CatWork, float64(th.ID+1)*100)
		th.ChargeMessage(sim.CatComm, 64)
	})
	if res.SimNS < 400 {
		t.Fatalf("SimNS %v, want >= straggler 400", res.SimNS)
	}
	if res.Messages != 4 || res.Bytes != 4*64 {
		t.Fatalf("message counters wrong: %d msgs %d bytes", res.Messages, res.Bytes)
	}
	if res.Threads != 4 {
		t.Fatalf("Threads = %d", res.Threads)
	}
	avg := res.AvgByCategory()
	if avg[sim.CatWork] != (100+200+300+400)/4 {
		t.Fatalf("avg work %v", avg[sim.CatWork])
	}
}

func TestRunResetsClocks(t *testing.T) {
	rt := testRT(t, 1, 2)
	rt.Run(func(th *Thread) { th.Clock.Charge(sim.CatWork, 1000) })
	res := rt.Run(func(th *Thread) {})
	if res.SimNS != 0 {
		t.Fatalf("clocks not reset between runs: %v", res.SimNS)
	}
}

func TestOrReducer(t *testing.T) {
	rt := testRT(t, 2, 2)
	red := NewReducer(rt)
	var trueCount, falseCount atomic.Int64
	rt.Run(func(th *Thread) {
		// Round 1: only thread 2 raises the flag -> everyone sees true.
		if red.Or(th, th.ID == 2) {
			trueCount.Add(1)
		}
		// Round 2: nobody raises -> everyone sees false.
		if !red.Or(th, false) {
			falseCount.Add(1)
		}
		// Round 3: everyone raises.
		if !red.Or(th, true) {
			t.Errorf("thread %d missed round-3 flag", th.ID)
		}
	})
	if trueCount.Load() != 4 || falseCount.Load() != 4 {
		t.Fatalf("reducer agreement broken: %d true, %d false", trueCount.Load(), falseCount.Load())
	}
}

func TestRemoteVsLocalCost(t *testing.T) {
	rt := testRT(t, 2, 1)
	a := rt.NewSharedArray("t", 2)
	var localNS, remoteNS float64
	rt.RunOneSided(func(th *Thread) {
		if th.ID != 0 {
			return
		}
		before := th.Clock.NS
		th.Get(a, 0, sim.CatComm) // local
		localNS = th.Clock.NS - before
		before = th.Clock.NS
		th.Get(a, 1, sim.CatComm) // remote (owner: thread 1, node 1)
		remoteNS = th.Clock.NS - before
	})
	if remoteNS < 10*localNS {
		t.Fatalf("remote (%v) should dwarf local (%v)", remoteNS, localNS)
	}
}

// TestSingleWordCharges pins the exact clock each single-word access leaves,
// local and remote, on a 2-node runtime: a remote access is one SmallOp
// charge (AtomicMin's lock, read and conditional write sum two round trips
// into one) plus its messages, bytes and one remote op; a local access is one
// irregular access and its misses; AtomicMin then charges the uncontended
// lock. Every field is compared with ==, and the clock already holds an
// offset whose rounding changes if the round trips are charged apart.
func TestSingleWordCharges(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("w", 40)
	a.Fill(100)
	m := rt.Model()
	tpn, s := rt.ThreadsPerNode(), rt.NumThreads()
	const cat = sim.CatIrregular
	const offset = 1.0 / 3 // (offset+a)+a != offset+2a for this model's SmallOp(2)
	start := func() sim.Clock {
		var c sim.Clock
		c.Charge(cat, offset)
		return c
	}
	local := func(lock bool) sim.Clock {
		c := start()
		ns, misses := m.IrregularAccess(1, a.NodeSpan())
		c.Charge(cat, ns)
		c.CacheMisses += misses
		if lock {
			c.Charge(cat, m.Lock(false))
		}
		return c
	}
	remote := func(legs int, msgs int64, lock bool) sim.Clock {
		c := start()
		ns := m.SmallOp(tpn, s, legs)
		if msgs == 2 {
			ns += m.SmallOp(tpn, s, legs)
		}
		c.Charge(cat, ns)
		c.Messages += msgs
		c.Bytes += msgs * sim.ElemBytes
		c.RemoteOps++
		if lock {
			c.Charge(cat, m.Lock(false))
		}
		return c
	}
	// Thread 0 lives on node 0, which owns [0,20); element 30 is node 1's.
	for _, tc := range []struct {
		name string
		i    int64
		op   func(th *Thread, i int64)
		want sim.Clock
	}{
		{"Get/local", 5, func(th *Thread, i int64) { th.Get(a, i, cat) }, local(false)},
		{"Get/remote", 30, func(th *Thread, i int64) { th.Get(a, i, cat) }, remote(2, 1, false)},
		{"Put/local", 5, func(th *Thread, i int64) { th.Put(a, i, 7, cat) }, local(false)},
		{"Put/remote", 30, func(th *Thread, i int64) { th.Put(a, i, 7, cat) }, remote(1, 1, false)},
		{"PutMin/local", 6, func(th *Thread, i int64) { th.PutMin(a, i, 3, cat) }, local(false)},
		{"PutMin/remote", 31, func(th *Thread, i int64) { th.PutMin(a, i, 3, cat) }, remote(1, 1, false)},
		{"AtomicMin/local", 7, func(th *Thread, i int64) { th.AtomicMin(a, i, 3, cat) }, local(true)},
		{"AtomicMin/remote", 32, func(th *Thread, i int64) { th.AtomicMin(a, i, 3, cat) }, remote(2, 2, true)},
	} {
		var got sim.Clock
		rt.RunOneSided(func(th *Thread) {
			if th.ID == 0 {
				th.Clock.Charge(cat, offset)
				tc.op(th, tc.i)
				got = th.Clock
			}
		})
		if got != tc.want {
			t.Errorf("%s: clock %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestSameNode(t *testing.T) {
	rt := testRT(t, 2, 2)
	rt.Run(func(th *Thread) {
		if th.ID == 0 {
			if !th.SameNode(1) || th.SameNode(2) {
				t.Error("SameNode wrong for thread 0")
			}
		}
	})
}

func TestSumReducer(t *testing.T) {
	rt := testRT(t, 2, 2)
	red := NewReducer(rt)
	var wrong atomic.Int64
	rt.Run(func(th *Thread) {
		// Round 1: thread i contributes i+1 -> sum 10.
		if red.Sum(th, int64(th.ID+1)) != 10 {
			wrong.Add(1)
		}
		// Round 2: zeros.
		if red.Sum(th, 0) != 0 {
			wrong.Add(1)
		}
		// Round 3: negative values.
		if red.Sum(th, int64(-th.ID)) != -6 {
			wrong.Add(1)
		}
		// Min rounds on the same reducer. Round 4: negative and positive
		// values -2, -1, 0, 1.
		if red.Min(th, int64(th.ID)-2) != -2 {
			wrong.Add(1)
		}
		// Round 5: every thread sends sssp's "no bucket" value.
		if red.Min(th, math.MaxInt64) != math.MaxInt64 {
			wrong.Add(1)
		}
		// Round 6: only thread 2 has a bucket.
		local := int64(math.MaxInt64)
		if th.ID == 2 {
			local = 5
		}
		if red.Min(th, local) != 5 {
			wrong.Add(1)
		}
		// Round 7: a sum after the minima still sees this round's words.
		if red.Sum(th, 1) != 4 {
			wrong.Add(1)
		}
	})
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong reductions", wrong.Load())
	}
}

func TestNewSharedArrayNegativePanics(t *testing.T) {
	rt := testRT(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	rt.NewSharedArray("bad", -1)
}

func TestBulkRangePanics(t *testing.T) {
	rt := testRT(t, 1, 2)
	a := rt.NewSharedArray("t", 8)
	panicked := false
	rt.Run(func(th *Thread) {
		if th.ID != 0 {
			return
		}
		defer func() { panicked = recover() != nil }()
		th.GetBulk(a, 6, make([]int64, 4), sim.CatComm)
	})
	if !panicked {
		t.Fatal("out-of-bounds GetBulk did not panic")
	}
}

func TestEmptySharedArray(t *testing.T) {
	rt := testRT(t, 2, 2)
	a := rt.NewSharedArray("empty", 0)
	if a.Len() != 0 {
		t.Fatal("empty array length wrong")
	}
	lo, hi := a.ThreadCover(3)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty array ThreadCover = [%d,%d)", lo, hi)
	}
}

func TestNodeSpan(t *testing.T) {
	rt := testRT(t, 2, 2) // 4 threads, 2 per node
	a := rt.NewSharedArray("t", 100)
	// blk = 25, node span = 50.
	if a.NodeSpan() != 50 {
		t.Fatalf("NodeSpan = %d, want 50", a.NodeSpan())
	}
	tiny := rt.NewSharedArray("tiny", 3)
	if tiny.NodeSpan() < 1 || tiny.NodeSpan() > 3 {
		t.Fatalf("tiny NodeSpan = %d", tiny.NodeSpan())
	}
}
