package verify

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/xrand"
)

// A Check is one row of the battery: an oracle comparison or cross-kernel
// differential test, runnable against any trial (see the package comment
// for what a row's fields mean together). Every execution gets a freshly
// built runtime and collective state, so kernels never observe another
// check's scratch and an injected fault stays scoped to one execution.
type Check struct {
	// Name identifies the check (kernel/variant).
	Name string
	// Mutation marks checks safe to run with an injected collective
	// fault: their kernels bound iterations (panicking, not hanging,
	// when convergence is destroyed) and their oracles are decisive on
	// small inputs.
	Mutation bool
	// Wire marks the subset that is well-defined on a wire cluster and must
	// pass identically on both backends. Left out are the one-sided naive
	// kernels (their turn orders one process's threads only), the kernels that read raw remote state host-side between
	// regions (listrank/cgm), and the slow small-graph baselines.
	Wire bool
	// Applicable gates the check on trial shape (expensive baselines
	// stay off big trials; source-based checks need vertices).
	Applicable func(t *Trial) bool
	// Kernel is the registry row the check runs through serve.RunKernel on
	// the trial's inputs and holds to that row's own oracle (serve.Verify).
	Kernel string
	// Twin is a second registry kernel run afterwards on the same cluster;
	// its labels (ranks, for listrank) and component count must be
	// bit-identical to Kernel's.
	Twin string
	// Canonical demands Kernel's labels equal seq.CC exactly: every monotone
	// collective kernel terminates in component-minimum rooted stars, so
	// equality — not just the same partition — is the contract.
	Canonical bool
	// Run, on the rows that name no Kernel, executes the check and returns
	// a description of the first mismatch (nil = pass).
	Run func(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error
}

func always(*Trial) bool { return true }

// small gates the slow per-edge baselines and the quadratic-ish oracles.
func small(t *Trial) bool { return t.Graph.N <= 600 && t.Graph.M() <= 1800 }

// Checks returns the harness battery: the collective algebraic laws, then
// every kernel against its sequential oracle and its twin, then the serving
// checks. Order matters for mutation runs — the laws pinpoint a collective
// fault directly before any kernel interprets it — and for every digest:
// the chaos rotation is (round+j) % len(battery), so a changed list moves
// them all (TestBatteryPinned).
func Checks() []Check {
	battery := []Check{
		// The laws exercise the collectives themselves; no kernel to name.
		{Name: "collective/getd-law", Mutation: true, Wire: true, Applicable: always, Run: checkGetDLaw},
		{Name: "collective/setd-roundtrip", Mutation: true, Wire: true, Applicable: always, Run: checkSetDRoundtrip},
		{Name: "collective/setdmin-law", Mutation: true, Wire: true, Applicable: always, Run: checkSetDMinLaw},
		{Name: "collective/plan-reuse", Mutation: true, Wire: true, Applicable: always, Run: checkPlanReuse},
		{Name: "cc/coalesced", Mutation: true, Wire: true, Applicable: always, Kernel: "cc/coalesced"},
		{Name: "cc/sv", Mutation: true, Wire: true, Applicable: always, Kernel: "cc/sv", Twin: "cc/coalesced"},
		{Name: "cc/fastsv", Mutation: true, Wire: true, Applicable: always, Kernel: "cc/fastsv", Twin: "cc/sv", Canonical: true},
		{Name: "cc/lt-prs", Applicable: always, Kernel: "cc/lt-prs", Twin: "cc/coalesced", Canonical: true},
		{Name: "cc/lt-pus", Applicable: always, Kernel: "cc/lt-pus", Twin: "cc/coalesced", Canonical: true},
		{Name: "cc/lt-ers", Wire: true, Applicable: always, Kernel: "cc/lt-ers", Twin: "cc/coalesced", Canonical: true},
		{Name: "cc/naive", Applicable: small, Kernel: "cc/naive"},
		{Name: "cc/merge-cgm", Applicable: small, Kernel: "cc/merge-cgm"},
		// The forest kernel WITHOUT the tour: the registry's spanning-forest
		// row always roots its forest (that is euler/tour below), and the
		// mutation self-test needs the bare kernel's op stream.
		{Name: "cc/spanning-forest", Mutation: true, Applicable: always, Run: checkSpanningForest},
		{Name: "mst/coalesced", Mutation: true, Applicable: always, Kernel: "mst/coalesced"},
		{Name: "mst/naive", Applicable: small, Kernel: "mst/naive"},
		{Name: "bfs/coalesced", Wire: true, Applicable: always, Kernel: "bfs/coalesced"},
		{Name: "sssp/delta-stepping", Applicable: always, Kernel: "sssp/delta-stepping"},
		{Name: "listrank/wyllie", Applicable: always, Kernel: "listrank/wyllie"},
		{Name: "listrank/cgm", Applicable: always, Kernel: "listrank/cgm", Twin: "listrank/wyllie"},
		// Spanning forest then Euler tour, which roots it for the service's
		// tree queries, is what the registry's spanning-forest row runs.
		{Name: "euler/tour", Applicable: always, Kernel: "spanning-forest"},
		// The graph-service layer: registry dispatch fidelity, batched
		// point queries against the oracles, and the incremental-CC
		// contract, all over the same randomized trial matrix.
		{Name: "serve/dispatch", Applicable: serveTrialGraphs, Run: checkServeDispatch},
		{Name: "serve/query-batch", Applicable: serveTrialGraphs, Run: checkServeQueryBatch},
		{Name: "serve/incremental-cc", Applicable: serveTrialGraphs, Run: checkServeIncremental},
	}
	return battery
}

// run executes the row on one cluster: its Run func where it keeps one,
// else Kernel through the registry on the trial's inputs, held to the row's
// oracle, to the canonical labeling and to its Twin as the row asks.
func (c Check) run(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	if c.Kernel == "" {
		return c.Run(t, rt, comm)
	}
	spec := t.spec(c.Kernel)
	res, err := serve.RunKernel(rt, comm, spec)
	if err != nil {
		return err
	}
	if err := serve.Verify(spec, res); err != nil {
		return fmt.Errorf("%s vs oracle: %w", c.Kernel, err)
	}
	if c.Canonical {
		for i, want := range seq.CC(t.Graph) {
			if res.Labels[i] != want {
				return fmt.Errorf("%s label[%d] = %d, canonical oracle says %d", c.Kernel, i, res.Labels[i], want)
			}
		}
	}
	if c.Twin == "" {
		return nil
	}
	twin, err := serve.RunKernel(rt, comm, t.spec(c.Twin))
	if err != nil {
		return err
	}
	got, want := answer(res), answer(twin)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s answer[%d] = %d, %s on the same cluster says %d", c.Kernel, i, got[i], c.Twin, want[i])
		}
	}
	if res.Components != twin.Components {
		return fmt.Errorf("%s found %d components, %s %d", c.Kernel, res.Components, c.Twin, twin.Components)
	}
	return nil
}

// spec names one registry run on the trial's inputs: the weighted twin for
// the rows that need weights, the list for the list rows, and a private
// copy of the option vector so no kernel can edit the trial's.
func (t *Trial) spec(kernel string) serve.KernelSpec {
	o := t.Opts
	spec := serve.KernelSpec{Kernel: kernel, Graph: t.Graph, List: t.List,
		Col: &o, Compact: t.Compact, Src: t.Src, Delta: t.Delta}
	if serve.Weighted(kernel) {
		spec.Graph = t.WGraph
	}
	return spec
}

// answer is the array a Twin must reproduce bit for bit: a listrank row's
// ranks, any other row's labels.
func answer(res *serve.KernelResult) []int64 {
	if lr, ok := res.Detail.(*listrank.Result); ok {
		return lr.Ranks
	}
	return res.Labels
}

// --- Collective algebraic laws -----------------------------------------

// lawSize picks the shared-array length for the law checks: the trial
// graph's vertex count, floored so every thread owns something to serve.
func lawSize(t *Trial, rt *pgas.Runtime) int64 {
	n := t.Graph.N
	if min := int64(4 * rt.NumThreads()); n < min {
		n = min
	}
	return n
}

// lawData builds the backing array: distinct values everywhere except
// index 0, which is pinned to 0 so the offload optimization's substituted
// value is exact.
func lawData(n int64) []int64 {
	data := make([]int64, n)
	for i := int64(1); i < n; i++ {
		data[i] = i*2654435761 + 17
	}
	return data
}

// checkGetDLaw: GetD must equal the direct gather out[j] = D[indices[j]]
// for random per-thread request lists — the identity every kernel's read
// side rests on.
func checkGetDLaw(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	n := lawSize(t, rt)
	data := lawData(n)
	s := rt.NumThreads()
	rng := xrand.New(t.Seed).Split(0x6e7d)
	reqs := make([][]int64, s)
	for i := range reqs {
		k := int(rng.Int64n(300))
		reqs[i] = make([]int64, k)
		for j := range reqs[i] {
			reqs[i][j] = rng.Int64n(n)
		}
	}
	d := rt.NewSharedArray("Law", n)
	copy(d.Raw(), data)
	outs := make([][]int64, s)
	caches := make([]collective.IDCache, s)
	rt.Run(func(th *pgas.Thread) {
		out := make([]int64, len(reqs[th.ID]))
		comm.GetD(th, d, reqs[th.ID], out, &t.Opts, &caches[th.ID])
		// Second call through the warm IDCache must agree too.
		comm.GetD(th, d, reqs[th.ID], out, &t.Opts, &caches[th.ID])
		outs[th.ID] = out
	})
	for i, req := range reqs {
		if !rt.IsLocal(i) {
			continue // a wire cluster only ran this process's threads
		}
		for j, ix := range req {
			if outs[i][j] != data[ix] {
				return fmt.Errorf("GetD: thread %d request %d (index %d) got %d, want %d",
					i, j, ix, outs[i][j], data[ix])
			}
		}
	}
	return nil
}

// checkSetDRoundtrip: SetD of thread-disjoint (index, value) pairs
// followed by GetD must read back exactly what was written.
func checkSetDRoundtrip(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	n := lawSize(t, rt)
	s := rt.NumThreads()
	rng := xrand.New(t.Seed).Split(0x5e7d)
	// Thread i writes only indices congruent to i mod s: disjoint
	// writers, so the expected final array is order-independent. Within
	// one thread's list the collectives apply requests in list order, so
	// the last duplicate wins.
	idxs := make([][]int64, s)
	vals := make([][]int64, s)
	want := lawData(n)
	for i := 0; i < s; i++ {
		k := int(rng.Int64n(200))
		idxs[i] = make([]int64, k)
		vals[i] = make([]int64, k)
		for j := 0; j < k; j++ {
			ix := rng.Int64n(n)
			ix -= (ix - int64(i)) % int64(s)
			if ix < 0 {
				ix += int64(s)
			}
			if ix >= n {
				ix = int64(i)
			}
			if ix == 0 && t.Opts.Offload {
				ix = int64(s) // keep the offloaded slot constant
				if ix >= n {
					ix = n - 1
				}
			}
			v := int64(rng.Uint64n(1 << 40))
			idxs[i][j] = ix
			vals[i][j] = v
			want[ix] = v
		}
	}
	d := rt.NewSharedArray("Law", n)
	copy(d.Raw(), lawData(n))
	outs := make([][]int64, s)
	rt.Run(func(th *pgas.Thread) {
		comm.SetD(th, d, idxs[th.ID], vals[th.ID], &t.Opts, nil)
		out := make([]int64, len(idxs[th.ID]))
		comm.GetD(th, d, idxs[th.ID], out, &t.Opts, nil)
		outs[th.ID] = out
	})
	for i := range want {
		if got := d.Raw()[i]; got != want[i] {
			return fmt.Errorf("SetD: D[%d] = %d after scatter, want %d", i, got, want[i])
		}
	}
	for i, req := range idxs {
		if !rt.IsLocal(i) {
			continue // a wire cluster only ran this process's threads
		}
		for j, ix := range req {
			if outs[i][j] != want[ix] {
				return fmt.Errorf("SetD/GetD roundtrip: thread %d read D[%d] = %d, want %d",
					i, ix, outs[i][j], want[ix])
			}
		}
	}
	return nil
}

// checkSetDMinLaw: SetDMin over duplicate-heavy request lists from every
// thread must match the sequential min-scatter oracle.
func checkSetDMinLaw(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	n := lawSize(t, rt)
	s := rt.NumThreads()
	rng := xrand.New(t.Seed).Split(0x317d)
	const initVal = int64(1) << 40
	want := make([]int64, n)
	for i := range want {
		want[i] = initVal
	}
	want[0] = 0 // offload semantics pin the slot-0 value at the minimum
	idxs := make([][]int64, s)
	vals := make([][]int64, s)
	alphabet := min(n, 1+rng.Int64n(24)) // duplicate-heavy index pool
	for i := 0; i < s; i++ {
		k := int(rng.Int64n(300))
		idxs[i] = make([]int64, k)
		vals[i] = make([]int64, k)
		for j := 0; j < k; j++ {
			ix := rng.Int64n(n)
			if rng.Intn(2) == 0 {
				ix = rng.Int64n(alphabet)
			}
			v := 1 + rng.Int64n(1<<30)
			idxs[i][j] = ix
			vals[i][j] = v
			if ix != 0 && v < want[ix] {
				want[ix] = v
			}
		}
	}
	d := rt.NewSharedArray("Law", n)
	for i := int64(1); i < n; i++ {
		d.Raw()[i] = initVal
	}
	rt.Run(func(th *pgas.Thread) {
		comm.SetDMin(th, d, idxs[th.ID], vals[th.ID], &t.Opts, nil)
	})
	for i := range want {
		if got := d.Raw()[i]; got != want[i] {
			return fmt.Errorf("SetDMin: D[%d] = %d, min-scatter oracle says %d", i, got, want[i])
		}
	}
	return nil
}

// checkPlanReuse: a Plan built once and executed repeatedly must keep
// matching the direct oracle — GetD against a mutated backing array
// (values must track the array, not the build-time snapshot). This is the
// sole check exercising the reuse path (one-shot collectives rebuild every
// call), so it is what catches the reuse-gated plan faults.
func checkPlanReuse(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	n := lawSize(t, rt)
	s := rt.NumThreads()
	// Thread i requests k distinct indices striding the whole array, so
	// every thread sends a segment to every owner and the published
	// offsets are nonzero — the layout the stale-matrix seam perturbs.
	k := int(min(n, 96))
	stride := n / int64(k)
	reqs := make([][]int64, s)
	for i := 0; i < s; i++ {
		reqs[i] = make([]int64, k)
		for j := 0; j < k; j++ {
			reqs[i][j] = (int64(i) + int64(j)*stride) % n
		}
	}
	d := rt.NewSharedArray("PlanLaw", n)
	copy(d.Raw(), lawData(n))
	plan := comm.NewPlan()
	caches := make([]collective.IDCache, s)
	outs := make([][]int64, s)
	for i := range outs {
		outs[i] = make([]int64, k)
	}
	compare := func(pass string) error {
		for i, req := range reqs {
			if !rt.IsLocal(i) {
				continue // a wire cluster only ran this process's threads
			}
			for j, ix := range req {
				if outs[i][j] != d.Raw()[ix] {
					return fmt.Errorf("plan GetD (%s): thread %d request %d (index %d) got %d, want %d",
						pass, i, j, ix, outs[i][j], d.Raw()[ix])
				}
			}
		}
		return nil
	}

	rt.Run(func(th *pgas.Thread) {
		plan.PlanRequests(th, d, reqs[th.ID], &t.Opts, &caches[th.ID])
		plan.GetD(th, d, outs[th.ID])
	})
	if err := compare("build"); err != nil {
		return err
	}

	// Mutate the array (index 0 stays pinned at the offload value) and
	// re-execute the unchanged plan.
	raw := d.Raw()
	for i := int64(1); i < n; i++ {
		raw[i] += 7919*i + 13
	}
	rt.Run(func(th *pgas.Thread) {
		plan.GetD(th, d, outs[th.ID])
	})
	return compare("reuse")
}

// --- The kernel without a registry row ----------------------------------

func checkSpanningForest(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return cc.VerifySpanningForest(t.Graph,
		cc.SpanningTree(rt, comm, t.Graph, &cc.Options{Col: &o, Compact: t.Compact}))
}
