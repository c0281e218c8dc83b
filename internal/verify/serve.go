package verify

import (
	"fmt"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/xrand"
)

// The serving checks close the loop on the graph-service layer: dispatch
// through the serve.RunKernel registry must be observationally identical
// to calling the kernel directly, a batched query must answer exactly
// what the sequential oracles say, and the incremental-CC path must stay
// bit-identical to a from-scratch recompute across the whole randomized
// trial matrix (geometry × options × graph family).

// ccFamily is the rotation pool for the serving checks: the three collective
// labeling kernels. A trial picks by Seed % len(ccFamily), which the chaos
// digests mix — so the list is a pinned literal, never derived from the
// registry's cc/ prefix (cc/naive and cc/merge-cgm share it), and
// TestPinnedKernelNames keeps every name a registered row.
var ccFamily = []string{"cc/coalesced", "cc/sv", "cc/fastsv"}

func ccFamilyPick(t *Trial) string { return ccFamily[t.Seed%uint64(len(ccFamily))] }

// checkServeDispatch runs one CC-family kernel (rotated per trial)
// through the uniform registry and directly, on identical fresh clusters,
// and demands bit-identical answers: the dispatch seam must add no
// observable behavior. (Simulated time is NOT compared here — the chaos
// soak rotates this check, and an injected-fault retry legitimately adds
// sim time to the dispatched run only; clean sim-time identity is pinned
// by TestRunKernelMatchesDirect.)
func checkServeDispatch(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	spec := t.spec(ccFamilyPick(t))
	res, err := serve.RunKernel(rt, comm, spec)
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	rt2, err := trialRuntime(t, nil) // the twin must run under the trial's partition too
	if err != nil {
		return err
	}
	direct := ccKernel(t, spec.Kernel, rt2, collective.NewComm(rt2))
	for i := range direct.Labels {
		if res.Labels[i] != direct.Labels[i] {
			return fmt.Errorf("dispatched label[%d] = %d, direct call says %d", i, res.Labels[i], direct.Labels[i])
		}
	}
	if res.Components != direct.Components {
		return fmt.Errorf("dispatch diverged: components %d vs %d", res.Components, direct.Components)
	}

	// Misuse must classify, not panic, through the same entry.
	if _, err := serve.RunKernel(rt, comm, serve.KernelSpec{Kernel: "no-such-kernel", Graph: t.Graph}); err == nil {
		return fmt.Errorf("unknown kernel dispatched without error")
	}
	return nil
}

// checkServeQueryBatch stands a Service up on the trial cluster, runs cc
// and bfs through it, and answers a deterministic mixed batch of point
// queries, each checked against the sequential oracles.
func checkServeQueryBatch(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	svc, err := serve.NewOn(rt, comm, t.Graph, serve.Config{Col: &t.Opts})
	if err != nil {
		return err
	}
	if _, err := svc.Run(serve.KernelSpec{Kernel: "cc/coalesced", Compact: t.Compact}); err != nil {
		return err
	}
	if _, err := svc.Run(serve.KernelSpec{Kernel: "bfs/coalesced", Src: t.Src}); err != nil {
		return err
	}

	labels := seq.CC(t.Graph)
	sizes := map[int64]int64{}
	for _, l := range labels {
		sizes[l]++
	}
	dist := bfs.SeqDistances(t.Graph, t.Src)

	rng := xrand.New(t.Seed).Split(0x5e47e)
	n := t.Graph.N
	var qs []serve.Query
	for i := 0; i < 24; i++ {
		u, v := int64(rng.Intn(int(n))), int64(rng.Intn(int(n)))
		switch i % 3 {
		case 0:
			qs = append(qs, serve.Query{Op: serve.SameComponent, U: u, V: v})
		case 1:
			qs = append(qs, serve.Query{Op: serve.ComponentSize, U: u})
		case 2:
			qs = append(qs, serve.Query{Op: serve.Distance, U: t.Src, V: v})
		}
	}
	ans, err := svc.Query(qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		var want int64
		switch q.Op {
		case serve.SameComponent:
			if labels[q.U] == labels[q.V] {
				want = 1
			}
		case serve.ComponentSize:
			want = sizes[labels[q.U]]
		case serve.Distance:
			want = dist[q.V]
		}
		if ans[i] != want {
			return fmt.Errorf("query %d (%v u=%d v=%d): answer %d, oracle says %d",
				i, q.Op, q.U, q.V, ans[i], want)
		}
	}

	// The batch API's edge contract: empty batches are trivially fine and
	// a bad id classifies instead of panicking the cluster.
	if empty, err := svc.Query(nil); err != nil || len(empty) != 0 {
		return fmt.Errorf("empty batch: ans=%v err=%v", empty, err)
	}
	if _, err := svc.Query([]serve.Query{{Op: serve.ComponentSize, U: n}}); err == nil {
		return fmt.Errorf("out-of-range query id answered without error")
	}
	return nil
}

// checkServeIncremental applies K deterministic random edge insertions
// through the Service's incremental-CC path and demands the resident
// labeling stay bit-identical to a from-scratch sequential recompute on
// the mutated graph after every batch — the incremental contract over the
// full randomized matrix.
func checkServeIncremental(t *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
	svc, err := serve.NewOn(rt, comm, t.Graph, serve.Config{Col: &t.Opts})
	if err != nil {
		return err
	}
	// Rotate the resident-label producer through the CC family: the
	// incremental grafts must be insensitive to which monotone kernel
	// seeded the star labeling.
	if _, err := svc.Run(serve.KernelSpec{Kernel: ccFamilyPick(t), Compact: t.Compact}); err != nil {
		return err
	}
	rng := xrand.New(t.Seed).Split(0x1ec4)
	n := int(t.Graph.N)
	for batch := 0; batch < 3; batch++ {
		k := 1 + rng.Intn(6)
		edges := make([]serve.Edge, k)
		for i := range edges {
			edges[i] = serve.Edge{U: int64(rng.Intn(n)), V: int64(rng.Intn(n))}
		}
		// A classified fault may legitimately push Insert onto the
		// supervised full-recompute fallback (the chaos soak rotates this
		// check); either path must land on the identical labeling. The
		// clean-matrix guarantee that insertion stays incremental is
		// pinned by the serve package's own tests and the CI smoke.
		if _, err := svc.Insert(edges); err != nil {
			return fmt.Errorf("insert batch %d: %w", batch, err)
		}
		want := seq.CC(svc.Graph())
		got := svc.Labels()
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("batch %d (%v): incremental label[%d] = %d, recompute says %d",
					batch, edges, i, got[i], want[i])
			}
		}
		if svc.Components() != seq.CountComponents(want) {
			return fmt.Errorf("batch %d: resident component count %d, recompute says %d",
				batch, svc.Components(), seq.CountComponents(want))
		}
	}
	return nil
}

// ccKernel is the direct-call twin of the CC-family registry rows: the
// same kernel the registry would dispatch, invoked without the seam. It is
// the one place in the harness where a direct call is the point — every
// battery row runs its kernel through the registry, and this switch is what
// serve/dispatch holds the registry to.
func ccKernel(t *Trial, name string, rt *pgas.Runtime, comm *collective.Comm) *cc.Result {
	opts := &cc.Options{Col: &t.Opts, Compact: t.Compact}
	switch name {
	case "cc/coalesced":
		return cc.Coalesced(rt, comm, t.Graph, opts)
	case "cc/sv":
		return cc.SV(rt, comm, t.Graph, opts)
	case "cc/fastsv":
		return cc.FastSV(rt, comm, t.Graph, opts)
	}
	panic(fmt.Sprintf("verify: no direct twin for kernel %q", name))
}

// serveTrialGraphs gates the serving checks on graphs the Service can
// clone and mutate cheaply inside one trial.
func serveTrialGraphs(t *Trial) bool {
	return t.Graph.N >= 2 && t.Graph.N <= 2000
}
