package verify

import (
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/serve"
)

// TestBatteryPinned pins the battery's names and order and its wire subset
// as literals. The chaos soak picks trial r's check by scanning
// (r+j) % len(battery) and the wire sweeps by r % len(wire subset), so
// adding, dropping or reordering one row moves every trial after it to
// another check — and with it every soak digest in .github/digests. A row
// may change what it runs; the list changes only together with the digests.
func TestBatteryPinned(t *testing.T) {
	want := []string{
		"collective/getd-law", "collective/setd-roundtrip", "collective/setdmin-law", "collective/plan-reuse",
		"cc/coalesced", "cc/sv", "cc/fastsv", "cc/naive", "cc/merge-cgm",
		"cc/spanning-forest", "mst/coalesced", "mst/naive", "bfs/coalesced",
		"sssp/delta-stepping", "listrank/wyllie", "listrank/cgm", "euler/tour",
		"serve/dispatch", "serve/query-batch", "serve/incremental-cc",
	}
	wantWire := []string{
		"collective/getd-law", "collective/setd-roundtrip", "collective/setdmin-law", "collective/plan-reuse",
		"cc/coalesced", "cc/sv", "cc/fastsv", "bfs/coalesced",
	}
	names := func(cs []Check) (out []string) {
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return out
	}
	if got := names(Checks()); !slices.Equal(got, want) {
		t.Errorf("battery = %v\npinned to %v", got, want)
	}
	if got := names(battery(wireRow, nil)); !slices.Equal(got, wantWire) {
		t.Errorf("wire battery = %v\npinned to %v", got, wantWire)
	}
	for _, c := range Checks() {
		if (c.Kernel == "") == (c.Run == nil) {
			t.Errorf("%s: a row names a Kernel or keeps a Run func, exactly one", c.Name)
		}
		if c.Kernel == "" && (c.Twin != "" || c.Canonical) {
			t.Errorf("%s: Twin and Canonical qualify a Kernel; this row names none", c.Name)
		}
	}
}

// TestBatteryCoversRegistry: every registry kernel is some row's Kernel or
// Twin, or is excluded here with its reason — so a new registry row cannot
// be silently left out of the harness — and every kernel a row names is a
// registry row.
func TestBatteryCoversRegistry(t *testing.T) {
	excluded := map[string]bool{}
	named := map[string]bool{}
	for _, c := range Checks() {
		for _, k := range []string{c.Kernel, c.Twin} {
			if k == "" {
				continue
			}
			named[k] = true
			if !slices.Contains(serve.Kernels(), k) {
				t.Errorf("%s names %q, which is not a registry row", c.Name, k)
			}
		}
	}
	for _, k := range serve.Kernels() {
		if named[k] == excluded[k] {
			t.Errorf("registry kernel %s: run by a battery row %v, excluded %v; want exactly one", k, named[k], excluded[k])
		}
	}
}

// TestRunCheckEveryEnv drives one row — cc/coalesced — and one trial through
// every environment the one runner serves, and a panicking synthetic check
// beside it: whatever the backend, the chaos schedule or the supervisor, a
// run passes or fails classified, reports one slot per node it hosted, sums
// the fault counters identically on both backends, and turns a panic on any
// thread of any node into an error.
func TestRunCheckEveryEnv(t *testing.T) {
	c := batteryRow(t, "cc/coalesced")
	tr := wireTrial(0x9a7, 1, 200, 3, 1)
	mild := pgas.DefaultChaos(11)
	vicious := pgas.DefaultChaos(7)
	vicious.DropRate, vicious.MaxAttempts = 0.9, 1
	kills := mild
	kills.KillRate = 0.02
	panics := Check{Name: "synthetic/thread-panics", Run: func(tr *Trial, rt *pgas.Runtime, comm *collective.Comm) error {
		rt.Run(func(th *pgas.Thread) {
			if th.ID == rt.NumThreads()-1 {
				panic("thread kaboom")
			}
			th.Barrier()
		})
		return nil
	}}

	ran := map[string]*checkResult{}
	for _, tc := range []struct {
		name  string
		env   Env
		nodes int
	}{
		{"clean", Env{}, 1},
		{"chaos", Env{Chaos: &mild}, 1},
		{"chaos-starved", Env{Chaos: &vicious}, 1},
		{"supervised-kill", Env{Chaos: &kills, Recover: &recovery.Config{MinThreads: 1}}, 1},
		{"wire", Env{Wire: true}, tr.Machine.Nodes},
		{"wire-chaos", Env{Chaos: &mild, Wire: true}, tr.Machine.Nodes},
		{"wire-supervised-kill", Env{Chaos: &kills, Recover: &recovery.Config{MinThreads: 1}, Wire: true}, tr.Machine.Nodes},
	} {
		res := runCheck(c, tr, tc.env)
		ran[tc.name] = res
		if len(res.Errs) != tc.nodes {
			t.Errorf("%s: %d error slots, want one per hosted node (%d)", tc.name, len(res.Errs), tc.nodes)
		}
		if res.Err != nil && !classifiedErr(res.Err) {
			t.Errorf("%s: failure not classified: %v", tc.name, res.Err)
		}
		if tc.env.Chaos == nil && (res.Err != nil || res.Stats != (pgas.ChaosStats{})) {
			t.Errorf("%s: err=%v stats=%+v with no chaos armed", tc.name, res.Err, res.Stats)
		}
		if tc.env.Chaos != nil && res.Stats.Ops == 0 {
			t.Errorf("%s: chaos armed but no operation drew a verdict", tc.name)
		}
		if len(res.Reports) != tc.nodes {
			t.Errorf("%s: %d recovery reports, want one per hosted node (%d)", tc.name, len(res.Reports), tc.nodes)
		}
		for nd, rep := range res.Reports {
			// A node that completed although threads were killed got there by
			// rolling back, and says whom it evicted.
			if rep == nil || (res.Errs[nd] == nil && rep.Chaos.Kills > 0 && (rep.Rollbacks == 0 || len(rep.Evicted) == 0)) {
				t.Errorf("%s: node %d completed with recovery report %+v", tc.name, nd, rep)
			}
		}
		t.Logf("%s: err=%v stats=%+v", tc.name, res.Err, res.Stats)
		// The panicking node reports the panic; on a hosted cluster its peers
		// see a dead seat, and the verdict may name theirs.
		blown := runCheck(panics, tr, tc.env)
		if blown.Err == nil || !slices.ContainsFunc(blown.Errs, func(e error) bool {
			return e != nil && strings.Contains(e.Error(), "thread kaboom")
		}) {
			t.Errorf("%s: thread panic not converted to an error: %v (per node: %v)", tc.name, blown.Err, blown.Errs)
		}
	}
	assertClassifiedDrop(t, ran["chaos-starved"])
	// Per-thread draw streams are backend-independent by construction: the
	// same schedule ends the same way on both, with identical counters.
	in, wire := ran["chaos"], ran["wire-chaos"]
	if (in.Err == nil) != (wire.Err == nil) {
		t.Fatalf("chaos outcomes diverge: in-process err=%v, wire err=%v", in.Err, wire.Err)
	}
	if in.Err == nil && in.Stats != wire.Stats {
		t.Errorf("chaos counters diverge:\n  in-process %+v\n  wire       %+v", in.Stats, wire.Stats)
	}
}

// TestPinnedKernelNames: the two hand-kept kernel name lists — ccFamily,
// whose length and order the chaos digests mix, and the kernel-named part
// of the wire battery — stay what they are pinned to, and every name in them is
// a registered row, so neither list can rot as the registry grows or
// renames.
func TestPinnedKernelNames(t *testing.T) {
	if want := []string{"cc/coalesced", "cc/sv", "cc/fastsv"}; !slices.Equal(ccFamily, want) {
		t.Errorf("ccFamily = %v, pinned to %v (the chaos digests mix Seed %% len)", ccFamily, want)
	}
	wire := battery(wireRow, nil)
	if len(wire) != 8 {
		t.Errorf("the wire battery has %d checks, want 8: a listed name left the battery", len(wire))
	}
	names := slices.Clone(ccFamily)
	for _, c := range wire {
		if !strings.HasPrefix(c.Name, "collective/") {
			names = append(names, c.Name)
		}
	}
	for _, name := range names {
		if !slices.Contains(serve.Kernels(), name) {
			t.Errorf("%s: not a registered row", name)
		}
	}
}
