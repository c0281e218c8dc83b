package verify

import (
	"fmt"
	"slices"

	"pgasgraph/internal/bcc"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/euler"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/mis"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sssp"
	"pgasgraph/internal/xrand"
)

// A Check is one oracle comparison or cross-kernel differential test,
// runnable against any trial. Checks receive a freshly built runtime and
// collective state so kernels never observe another check's scratch and an
// injected fault stays scoped to one execution.
type Check struct {
	// Name identifies the check (kernel/variant).
	Name string
	// Mutation marks checks safe to run with an injected collective
	// fault: their kernels bound iterations (panicking, not hanging,
	// when convergence is destroyed) and their oracles are decisive on
	// small inputs.
	Mutation bool
	// RacyOps marks checks whose kernels perform a scheduling-dependent
	// NUMBER of runtime operations by design (benign arbitrary-CRCW
	// races that change iteration counts, not answers). The chaos soak
	// skips them: its bit-for-bit fault-schedule replay guarantee needs
	// a deterministic per-thread operation stream.
	RacyOps bool
	// Applicable gates the check on trial shape (expensive baselines
	// stay off big trials; source-based checks need vertices).
	Applicable func(t *Trial) bool
	// Run executes the check and returns a description of the first
	// mismatch (nil = pass).
	Run func(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error
}

func always(*Trial) bool { return true }

// small gates the slow per-edge baselines and the quadratic-ish oracles.
func small(t *Trial) bool { return t.Graph.N <= 600 && t.Graph.M() <= 1800 }

// Checks returns the harness battery: the collective algebraic laws, then
// every kernel against its sequential oracle, then the cross-kernel
// differentials. Order matters for mutation runs — the laws pinpoint a
// collective fault directly before any kernel interprets it.
func Checks() []Check {
	return []Check{
		{Name: "collective/getd-law", Mutation: true, Applicable: always, Run: checkGetDLaw},
		{Name: "collective/setd-roundtrip", Mutation: true, Applicable: always, Run: checkSetDRoundtrip},
		{Name: "collective/setdmin-law", Mutation: true, Applicable: always, Run: checkSetDMinLaw},
		{Name: "collective/plan-reuse", Mutation: true, Applicable: always, Run: checkPlanReuse},
		{Name: "cc/coalesced", Mutation: true, Applicable: always, Run: checkCCCoalesced},
		{Name: "cc/sv", Mutation: true, Applicable: always, Run: checkCCSV},
		{Name: "cc/fastsv", Mutation: true, RacyOps: serve.RacyOps("cc/fastsv"), Applicable: always, Run: checkCCFastSV},
		{Name: "cc/lt-prs", RacyOps: serve.RacyOps("cc/lt-prs"), Applicable: always, Run: checkCCLT(cc.LTPRS)},
		{Name: "cc/lt-pus", RacyOps: serve.RacyOps("cc/lt-pus"), Applicable: always, Run: checkCCLT(cc.LTPUS)},
		{Name: "cc/lt-ers", RacyOps: serve.RacyOps("cc/lt-ers"), Applicable: always, Run: checkCCLT(cc.LTERS)},
		// cc/naive's graft test re-reads labels mid-phase while peers
		// PutMin them (asynchronous short-cutting, Figure 2), so its
		// iteration count — and with it the per-thread op stream — is
		// scheduling-dependent even though the labels are not. The flag is
		// declared once, on the serve kernel registry, and derived here —
		// TestRacyOpsDerivedFromRegistry pins the correspondence.
		{Name: "cc/naive", RacyOps: serve.RacyOps("cc/naive"), Applicable: small, Run: checkCCNaive},
		{Name: "cc/merge-cgm", Applicable: small, Run: checkCCMerge},
		{Name: "cc/spanning-forest", Mutation: true, Applicable: always, Run: checkSpanningForest},
		{Name: "cc/bipartite", Applicable: small, Run: checkBipartite},
		{Name: "mst/coalesced", Mutation: true, Applicable: always, Run: checkMSTCoalesced},
		{Name: "mst/naive", Applicable: small, Run: checkMSTNaive},
		{Name: "bfs/coalesced", Applicable: always, Run: checkBFS},
		{Name: "bfs/naive", Applicable: small, Run: checkBFSNaive},
		{Name: "sssp/delta-stepping", Applicable: always, Run: checkSSSP},
		{Name: "mis/luby", Applicable: always, Run: checkMIS},
		{Name: "listrank/wyllie", Applicable: always, Run: checkWyllie},
		{Name: "listrank/cgm", Applicable: always, Run: checkCGM},
		{Name: "listrank/fused", Applicable: always, Run: checkFused},
		{Name: "euler/tour", Applicable: always, Run: checkEuler},
		{Name: "bcc/tarjan-vishkin", Applicable: small, Run: checkBCC},
		// The graph-service layer: registry dispatch fidelity, batched
		// point queries against the oracles, and the incremental-CC
		// contract, all over the same randomized trial matrix.
		{Name: "serve/dispatch", Applicable: serveTrialGraphs, Run: checkServeDispatch},
		{Name: "serve/query-batch", Applicable: serveTrialGraphs, Run: checkServeQueryBatch},
		{Name: "serve/incremental-cc", Applicable: serveTrialGraphs, Run: checkServeIncremental},
	}
}

// RunCheck builds a fresh cluster for t, arms fault, and executes c,
// converting kernel panics (iteration-bound blow-ups, index validation)
// into check failures. The pgas runtime propagates thread panics to this
// goroutine, so a blow-up on any simulated thread is caught here.
func RunCheck(c Check, t *Trial, fault collective.Fault) (err error) {
	defer recoverCheck(&err)
	rt, err := trialRuntime(t)
	if err != nil {
		return err
	}
	comm := collective.NewComm(rt)
	comm.InjectFault(fault)
	return c.Run(t, rt, comm)
}

// trialRuntime builds the fresh in-process runtime of trial t under its
// partition scheme.
func trialRuntime(t *Trial) (*pgas.Runtime, error) {
	rt, err := pgas.New(t.Machine)
	if err != nil {
		return nil, fmt.Errorf("machine config: %v", err)
	}
	if err := rt.SetPartition(t.PartitionSpec()); err != nil {
		return nil, fmt.Errorf("partition spec: %v", err)
	}
	return rt, nil
}

// recoverCheck converts a panic escaping a check into an error, preserving
// the error chain when the panic value is itself an error so callers can
// still classify it with errors.Is (pgas.ErrTransport and friends).
func recoverCheck(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("panic: %w", e)
		} else {
			*err = fmt.Errorf("panic: %v", r)
		}
	}
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
// matching the direct oracles — GetD against a mutated backing array
// (values must track the array, not the build-time snapshot), then
// SetDMin through the same plan against the sequential min-scatter
// oracle. This is the sole check exercising the reuse path (one-shot
// collectives rebuild every call), so it is what catches the reuse-gated
// plan faults.
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
	if err := compare("reuse"); err != nil {
		return err
	}

	// Priority write through the same plan: some values undercut the
	// current contents, some do not.
	want := make([]int64, n)
	copy(want, raw)
	vals := make([][]int64, s)
	for i := 0; i < s; i++ {
		vals[i] = make([]int64, k)
		for j, ix := range reqs[i] {
			v := raw[ix] - int64((i+j)%3)
			vals[i][j] = v
			if t.Opts.Offload && ix == t.Opts.OffloadIndex {
				continue // dropped client-side on a filtered plan
			}
			if v < want[ix] {
				want[ix] = v
			}
		}
	}
	rt.Run(func(th *pgas.Thread) {
		plan.SetDMin(th, d, vals[th.ID])
	})
	for i := range want {
		if raw[i] != want[i] {
			return fmt.Errorf("plan SetDMin: D[%d] = %d, min-scatter oracle says %d", i, raw[i], want[i])
		}
	}
	return nil
}

// --- Kernel oracle checks ----------------------------------------------

func ccOpts(t *Trial) *cc.Options {
	o := t.Opts
	return &cc.Options{Col: &o, Compact: t.Compact}
}

func checkCCCoalesced(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return cc.VerifyLabels(t.Graph, cc.Coalesced(rt, comm, t.Graph, ccOpts(t)).Labels)
}

// checkCCSV verifies Shiloach-Vishkin against the oracle AND against
// coalesced CC on the same cluster — the FastSV-style cross-validation of
// independent label-propagation schemes sharing one collective layer.
func checkCCSV(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	sv := cc.SV(rt, comm, t.Graph, ccOpts(t))
	if err := cc.VerifyLabels(t.Graph, sv.Labels); err != nil {
		return fmt.Errorf("SV vs oracle: %w", err)
	}
	co := cc.Coalesced(rt, comm, t.Graph, ccOpts(t))
	if !seq.SamePartition(sv.Labels, co.Labels) {
		return fmt.Errorf("SV and coalesced CC disagree on the same cluster")
	}
	if sv.Components != co.Components {
		return fmt.Errorf("SV found %d components, coalesced CC %d", sv.Components, co.Components)
	}
	return nil
}

// checkCCFastSV verifies FastSV bit-identically against the canonical
// sequential labeling (every monotone collective kernel terminates in
// component-minimum rooted stars, so exact equality — not just same
// partition — is the contract) and against SV on the same cluster.
func checkCCFastSV(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	fs := cc.FastSV(rt, comm, t.Graph, ccOpts(t))
	want := seq.CC(t.Graph)
	for i := range want {
		if fs.Labels[i] != want[i] {
			return fmt.Errorf("FastSV label[%d] = %d, canonical oracle says %d", i, fs.Labels[i], want[i])
		}
	}
	sv := cc.SV(rt, comm, t.Graph, ccOpts(t))
	for i := range sv.Labels {
		if fs.Labels[i] != sv.Labels[i] {
			return fmt.Errorf("FastSV label[%d] = %d, SV on the same cluster says %d", i, fs.Labels[i], sv.Labels[i])
		}
	}
	if fs.Components != sv.Components {
		return fmt.Errorf("FastSV found %d components, SV %d", fs.Components, sv.Components)
	}
	return nil
}

// checkCCLT builds the differential check for one Liu-Tarjan variant:
// bit-identical against the canonical oracle and against Bader-Cong
// (Coalesced) on the same cluster.
func checkCCLT(v cc.LTVariant) func(*Trial, *pgas.Runtime, *collective.Comm) error {
	return func(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
		lt := cc.LiuTarjan(rt, comm, t.Graph, v, ccOpts(t))
		want := seq.CC(t.Graph)
		for i := range want {
			if lt.Labels[i] != want[i] {
				return fmt.Errorf("%s label[%d] = %d, canonical oracle says %d", v, i, lt.Labels[i], want[i])
			}
		}
		co := cc.Coalesced(rt, comm, t.Graph, ccOpts(t))
		for i := range co.Labels {
			if lt.Labels[i] != co.Labels[i] {
				return fmt.Errorf("%s label[%d] = %d, coalesced CC on the same cluster says %d",
					v, i, lt.Labels[i], co.Labels[i])
			}
		}
		if lt.Components != co.Components {
			return fmt.Errorf("%s found %d components, coalesced CC %d", v, lt.Components, co.Components)
		}
		return nil
	}
}

func checkCCNaive(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return cc.VerifyLabels(t.Graph, cc.Naive(rt, t.Graph).Labels)
}

func checkCCMerge(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return cc.VerifyLabels(t.Graph, cc.MergeCGM(rt, t.Graph).Labels)
}

func checkSpanningForest(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return cc.VerifySpanningForest(t.Graph, cc.SpanningTree(rt, comm, t.Graph, ccOpts(t)))
}

func checkBipartite(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return cc.VerifyBipartite(t.Graph, cc.Bipartite(rt, comm, t.Graph, ccOpts(t)))
}

func checkMSTCoalesced(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return mst.VerifyForest(t.WGraph,
		mst.Coalesced(rt, comm, t.WGraph, &mst.Options{Col: &o, Compact: t.Compact}))
}

func checkMSTNaive(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return mst.VerifyForest(t.WGraph, mst.Naive(rt, t.WGraph))
}

func checkBFS(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return bfs.VerifyDistances(t.Graph, t.Src,
		bfs.Coalesced(rt, comm, t.Graph, t.Src, &o).Dist)
}

func checkBFSNaive(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	return bfs.VerifyDistances(t.Graph, t.Src, bfs.Naive(rt, t.Graph, t.Src).Dist)
}

func checkSSSP(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return sssp.VerifyDistances(t.WGraph, t.Src,
		sssp.DeltaStepping(rt, comm, t.WGraph, t.Src, t.Delta, &o).Dist)
}

func checkMIS(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return mis.VerifySet(t.Graph, mis.Luby(rt, comm, t.Graph, &o))
}

func checkWyllie(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return listrank.VerifyRanks(t.List, listrank.Wyllie(rt, comm, t.List, &o).Ranks)
}

// checkCGM verifies the contraction-based ranking against the oracle AND
// against Wyllie on the same cluster (independent algorithms, shared
// collective layer).
func checkCGM(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	cgm := listrank.CGM(rt, comm, t.List, &o)
	if err := listrank.VerifyRanks(t.List, cgm.Ranks); err != nil {
		return fmt.Errorf("CGM vs oracle: %w", err)
	}
	wy := listrank.Wyllie(rt, comm, t.List, &o)
	if !slices.Equal(cgm.Ranks, wy.Ranks) {
		return fmt.Errorf("CGM and Wyllie disagree on the same cluster")
	}
	return nil
}

func checkFused(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return listrank.VerifyRanks(t.List, listrank.WyllieFused(rt, comm, t.List, &o).Ranks)
}

// checkEuler composes spanning forest and Euler tour — the BCC pipeline's
// first two stages — and verifies the tree statistics structurally.
func checkEuler(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	sf := cc.SpanningTree(rt, comm, t.Graph, ccOpts(t))
	forest := sf.Forest(t.Graph)
	o := t.Opts
	return euler.VerifyStats(forest, euler.Tour(rt, comm, forest, sf.CC.Labels, &o))
}

func checkBCC(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	o := t.Opts
	return bcc.Verify(t.Graph, bcc.TarjanVishkin(rt, comm, t.Graph, &o))
}
