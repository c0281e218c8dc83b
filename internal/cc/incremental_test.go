package cc

import (
	"slices"
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

// TestIncrementalTraceContract: a batch is one gather and no rounds. Per
// thread per batch the update issues exactly one GetD-kind collective (the
// endpoint labels, built once and never re-executed) and no SetDMin, and
// reports one iteration.
func TestIncrementalTraceContract(t *testing.T) {
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
		if len(res.Merged) == 0 {
			t.Fatalf("batch %d merged nothing: the contract is not exercised", batch)
		}
		if res.Iterations != 1 {
			t.Errorf("batch %d: %d iterations, want 1", batch, res.Iterations)
		}
		if got := col.Calls("GetD"); got != 1 {
			t.Errorf("batch %d: %d GetD calls per thread, want 1", batch, got)
		}
		if got := col.Calls("SetDMin"); got != 0 {
			t.Errorf("batch %d: %d SetDMin calls per thread, want 0", batch, got)
		}
		if got := col.PlanReuses(); got != 0 {
			t.Errorf("batch %d: %d plan reuses per thread, want 0", batch, got)
		}
	}
}

// FuzzIncremental draws a small graph and a run of insert batches from the
// input — geometry, partition scheme, collective options and batch sizes
// included — and holds every batch to two things: labels bit-identical to
// a from-scratch Coalesced on the mutated graph, and component sizes that,
// updated from Merged alone, equal a recount of those labels.
func FuzzIncremental(f *testing.F) {
	f.Add(byte(0), byte(7), byte(3), []byte{5, 3, 5, 1, 0, 2})
	f.Add(byte(4), byte(40), byte(0x21), []byte("chains of merges across the batch, a-b b-c c-d d-a"))
	f.Add(byte(0x85), byte(255), byte(0xf0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 4, 6, 8, 10, 12, 1, 12})
	f.Fuzz(func(t *testing.T, geoRaw, nRaw, bits byte, data []byte) {
		geos := [][2]int{{1, 1}, {1, 4}, {2, 2}, {3, 1}, {4, 2}}
		geo := geos[int(geoRaw&0x7f)%len(geos)]
		n := 1 + int64(nRaw)%96
		rt, err := pgas.New(incrMachine(geo[0], geo[1]))
		if err != nil {
			t.Fatal(err)
		}
		if geoRaw&0x80 != 0 {
			if err := rt.SetPartition(pgas.PartitionSpec{Kind: pgas.SchemeCyclic}); err != nil {
				t.Fatal(err)
			}
		}
		opts := &Options{Col: collective.Base()}
		if bits&1 != 0 {
			opts.Col = collective.Optimized(2)
		}

		// Two bytes an edge, at most 48 edges. The first base edges are the
		// resident graph; the rest arrive in batches of batch edges.
		data = data[:min(len(data), 96)]
		var eu, ev []int64
		for j := 0; j+1 < len(data); j += 2 {
			eu, ev = append(eu, int64(data[j])%n), append(ev, int64(data[j+1])%n)
		}
		base := min(int(bits>>1)&7, len(eu))
		batch := 1 + int(bits>>4)
		g := &graph.Graph{N: n}
		for e := 0; e < base; e++ {
			g.U, g.V = append(g.U, int32(eu[e])), append(g.V, int32(ev[e]))
		}
		comm := collective.NewComm(rt)
		d := residentLabels(t, rt, comm, g, opts)
		recount := func(labels []int64) []int64 {
			sizes := make([]int64, n)
			for _, l := range labels {
				sizes[l]++
			}
			return sizes
		}
		sizes := recount(d.Raw())

		for lo := base; lo < len(eu); lo += batch {
			hi := min(lo+batch, len(eu))
			for e := lo; e < hi; e++ {
				g.U, g.V = append(g.U, int32(eu[e])), append(g.V, int32(ev[e]))
			}
			res := Incremental(rt, comm, d, eu[lo:hi], ev[lo:hi], opts)

			rt2, err := pgas.New(incrMachine(geo[0], geo[1]))
			if err != nil {
				t.Fatal(err)
			}
			want := Coalesced(rt2, collective.NewComm(rt2), g, opts)
			if !slices.Equal(res.Labels, want.Labels) {
				t.Fatalf("edges [%d,%d): labels %v, from scratch %v", lo, hi, res.Labels, want.Labels)
			}
			if res.Components != want.Components {
				t.Fatalf("edges [%d,%d): %d components, from scratch %d", lo, hi, res.Components, want.Components)
			}
			for j, m := range res.Merged {
				if j > 0 && res.Merged[j-1][0] >= m[0] {
					t.Fatalf("edges [%d,%d): Merged %v not sorted by old root", lo, hi, res.Merged)
				}
				sizes[m[1]] += sizes[m[0]]
				sizes[m[0]] = 0
			}
			if wantSizes := recount(want.Labels); !slices.Equal(sizes, wantSizes) {
				t.Fatalf("edges [%d,%d): sizes from Merged %v, recount %v", lo, hi, sizes, wantSizes)
			}
		}
	})
}
