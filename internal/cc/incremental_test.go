package cc

import (
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/trace"
	"pgasgraph/internal/xrand"
)

func incrMachine(nodes, tpn int) machine.Config {
	cfg := machine.SingleSMP()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	return cfg
}

// runCoalescedD runs Coalesced and returns both the result and the
// resident D array it converged in (rebuilt from the labels, which equal
// the collapsed-star state).
func residentLabels(t *testing.T, rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *pgas.SharedArray {
	t.Helper()
	res := Coalesced(rt, comm, g, opts)
	d := rt.NewSharedArray("D.resident", g.N)
	copy(d.Raw(), res.Labels)
	return d
}

// TestIncrementalMatchesFromScratch inserts K random edge batches into
// random sparse graphs across several geometries and asserts the
// incremental labeling is bit-identical to a from-scratch coalesced run
// on the mutated graph after every batch.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	rng := xrand.New(0x5eed)
	geometries := [][2]int{{1, 4}, {2, 2}, {4, 2}}
	for trial := 0; trial < 6; trial++ {
		nodes, tpn := geometries[trial%len(geometries)][0], geometries[trial%len(geometries)][1]
		n := int64(60 + rng.Intn(200))
		m := n / 2 // sparse: many components
		g := graph.Random(n, m, rng.Uint64())
		rt, err := pgas.New(incrMachine(nodes, tpn))
		if err != nil {
			t.Fatal(err)
		}
		comm := collective.NewComm(rt)
		opts := &Options{Col: collective.Optimized(2)}
		d := residentLabels(t, rt, comm, g, opts)

		for batch := 0; batch < 4; batch++ {
			k := 1 + rng.Intn(8)
			eu := make([]int64, k)
			ev := make([]int64, k)
			for i := 0; i < k; i++ {
				eu[i] = int64(rng.Intn(int(n)))
				ev[i] = int64(rng.Intn(int(n)))
				g.U = append(g.U, int32(eu[i]))
				g.V = append(g.V, int32(ev[i]))
			}
			res := Incremental(rt, comm, d, eu, ev, opts)

			rt2, err := pgas.New(incrMachine(nodes, tpn))
			if err != nil {
				t.Fatal(err)
			}
			want := Coalesced(rt2, collective.NewComm(rt2), g, opts)
			for i := range want.Labels {
				if res.Labels[i] != want.Labels[i] {
					t.Fatalf("trial %d batch %d: label[%d] = %d, want %d (n=%d, insert u=%v v=%v)",
						trial, batch, i, res.Labels[i], want.Labels[i], n, eu, ev)
				}
				if d.Raw()[i] != want.Labels[i] {
					t.Fatalf("trial %d batch %d: resident D[%d] = %d, not collapsed to %d",
						trial, batch, i, d.Raw()[i], want.Labels[i])
				}
			}
			if res.Components != want.Components {
				t.Fatalf("trial %d batch %d: %d components, want %d",
					trial, batch, res.Components, want.Components)
			}
		}
	}
}

// TestIncrementalChainInOneBatch is the regression for the case a single
// SetDMin pass gets wrong: edges (5,3) and (5,1) arrive together, so 3
// and 1 must merge transitively through 5 even though no inserted edge
// joins them directly.
func TestIncrementalChainInOneBatch(t *testing.T) {
	g := &graph.Graph{N: 8} // no edges: 8 singleton components
	rt, err := pgas.New(incrMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	d := residentLabels(t, rt, comm, g, nil)

	g.U = append(g.U, 5, 5)
	g.V = append(g.V, 3, 1)
	res := Incremental(rt, comm, d, []int64{5, 5}, []int64{3, 1}, nil)
	for _, v := range []int64{1, 3, 5} {
		if res.Labels[v] != 1 {
			t.Fatalf("label[%d] = %d, want 1 (chain merge through vertex 5)", v, res.Labels[v])
		}
	}
	if res.Components != 6 {
		t.Fatalf("components = %d, want 6", res.Components)
	}
	// The result is the resident array, not a per-batch copy of it.
	if &res.Labels[0] != &d.Raw()[0] {
		t.Fatal("Incremental's Result.Labels does not share storage with d")
	}
}

// TestIncrementalNoOpBatch: edges internal to existing components must
// not change any label and converge in one round.
func TestIncrementalNoOpBatch(t *testing.T) {
	g := graph.Random(100, 300, 3)
	rt, err := pgas.New(incrMachine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	d := residentLabels(t, rt, comm, g, nil)
	before := append([]int64(nil), d.Raw()...)

	// Duplicate an existing edge and add a self-loop: both no-ops.
	eu := []int64{int64(g.U[0]), 9}
	ev := []int64{int64(g.V[0]), 9}
	res := Incremental(rt, comm, d, eu, ev, nil)
	if res.Iterations != 1 {
		t.Fatalf("no-op batch took %d rounds, want 1", res.Iterations)
	}
	for i, v := range d.Raw() {
		if v != before[i] {
			t.Fatalf("no-op batch moved label[%d]: %d -> %d", i, before[i], v)
		}
	}
}

// TestIncrementalPlansOncePerBatch: the batch never changes, so every
// round after the first re-executes the plan the first one built.
func TestIncrementalPlansOncePerBatch(t *testing.T) {
	g := graph.Random(600, 300, 21)
	rt, err := pgas.New(incrMachine(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	opts := &Options{Col: collective.Optimized(2), Compact: true}
	d := residentLabels(t, rt, comm, g, opts)
	col := trace.NewCollector(rt.NumThreads())
	comm.SetTracer(col)
	rng := xrand.New(9)
	for batch := 0; batch < 3; batch++ {
		eu, ev := make([]int64, 64), make([]int64, 64)
		for i := range eu {
			eu[i], ev[i] = int64(rng.Intn(int(g.N))), int64(rng.Intn(int(g.N)))
		}
		col.Reset()
		res := Incremental(rt, comm, d, eu, ev, opts)
		if res.Iterations < 2 {
			t.Fatalf("batch %d: %d iterations, nothing to reuse", batch, res.Iterations)
		}
		if got, want := col.PlanReuses(), int64(res.Iterations-1); got != want {
			t.Errorf("batch %d: %d plan reuses per thread over %d iterations, want %d", batch, got, res.Iterations, want)
		}
	}
}
