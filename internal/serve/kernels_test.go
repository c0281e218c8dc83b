package serve

import (
	"reflect"
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
)

func testGraph(n, m int64, seed uint64) *graph.Graph {
	return graph.Random(n, m, seed)
}

func testWeightedGraph(n, m int64, seed uint64) *graph.Graph {
	return graph.WithRandomWeights(graph.Random(n, m, seed), seed+1)
}

// TestRunKernelMatchesDirect pins dispatch fidelity on a clean cluster:
// registry dispatch must be observationally identical to calling the
// kernel directly — the kernel package's result bit-identical field for
// field AND bit-identical simulated time (the harness's serve/dispatch
// check drops the sim comparison because chaos retries legitimately skew
// it; this is the clean twin). The paper's two headline kernels, then the
// three rows that were reachable only through Cluster methods.
func TestRunKernelMatchesDirect(t *testing.T) {
	g := testGraph(300, 650, 21)
	wg := testWeightedGraph(200, 500, 5)
	l := listrank.Chains(240, 3, 9)
	col := collective.Optimized(2)
	opts := &cc.Options{Col: col, Compact: true}
	for _, row := range []struct {
		spec   KernelSpec
		direct func(rt *pgas.Runtime, comm *collective.Comm) any
	}{
		{KernelSpec{Kernel: "cc/coalesced", Graph: g}, func(rt *pgas.Runtime, comm *collective.Comm) any { return cc.Coalesced(rt, comm, g, opts) }},
		{KernelSpec{Kernel: "mst/coalesced", Graph: wg}, func(rt *pgas.Runtime, comm *collective.Comm) any {
			return mst.Coalesced(rt, comm, wg, &mst.Options{Col: col, Compact: true})
		}},
		{KernelSpec{Kernel: "cc/merge-cgm", Graph: g}, func(rt *pgas.Runtime, comm *collective.Comm) any { return cc.MergeCGM(rt, g) }},
		{KernelSpec{Kernel: "listrank/wyllie", List: l}, func(rt *pgas.Runtime, comm *collective.Comm) any { return listrank.Wyllie(rt, comm, l, col) }},
		{KernelSpec{Kernel: "listrank/cgm", List: l}, func(rt *pgas.Runtime, comm *collective.Comm) any { return listrank.CGM(rt, comm, l, col) }},
	} {
		rt1, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		row.spec.Col, row.spec.Compact = col, true
		res, err := RunKernel(rt1, collective.NewComm(rt1), row.spec)
		if err != nil {
			t.Fatalf("%s: %v", row.spec.Kernel, err)
		}
		rt2, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		direct := row.direct(rt2, collective.NewComm(rt2))
		got, gotRun := splitRun(res.Detail)
		want, wantRun := splitRun(direct)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: dispatched result differs from the direct call's", row.spec.Kernel)
		}
		if res.Run != gotRun || gotRun.SimNS != wantRun.SimNS || gotRun.Messages != wantRun.Messages {
			t.Errorf("%s: dispatched sim %v in %d messages, direct %v in %d",
				row.spec.Kernel, gotRun.SimNS, gotRun.Messages, wantRun.SimNS, wantRun.Messages)
		}
		if err := Verify(row.spec, res); err != nil {
			t.Errorf("%s: %v", row.spec.Kernel, err)
		}
	}
}

// TestUniformRefusesAnUnmappedResult: a row whose kernel returns a type
// uniform does not lay out must fail at its first run, loudly — not hand
// back a KernelResult whose Run is nil.
func TestUniformRefusesAnUnmappedResult(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("uniform laid out a type it has no case for")
		}
	}()
	uniform("new/row", &struct{ Run *pgas.Result }{})
}

// splitRun takes a kernel package's result (a pointer to a struct with a
// Run field) apart: a copy with Run cleared, comparable across runs, and
// the accounting (whose Wall never repeats).
func splitRun(result any) (answer any, run *pgas.Result) {
	v := reflect.New(reflect.TypeOf(result).Elem()).Elem()
	v.Set(reflect.ValueOf(result).Elem())
	f := v.FieldByName("Run")
	run = f.Interface().(*pgas.Result)
	f.SetZero()
	return v.Interface(), run
}

// TestFastFamilyDispatchMatchesDirect pins dispatch fidelity for the
// fast-converging CC family: registry dispatch of each kernel must be
// bit-identical — answers and simulated time — to the direct call.
func TestFastFamilyDispatchMatchesDirect(t *testing.T) {
	g := testGraph(280, 600, 33)
	col := collective.Optimized(2)
	direct := map[string]func(rt *pgas.Runtime) *cc.Result{
		"cc/fastsv": func(rt *pgas.Runtime) *cc.Result {
			return cc.FastSV(rt, collective.NewComm(rt), g, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-prs": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTPRS, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-pus": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTPUS, &cc.Options{Col: col, Compact: true})
		},
		"cc/lt-ers": func(rt *pgas.Runtime) *cc.Result {
			return cc.LiuTarjan(rt, collective.NewComm(rt), g, cc.LTERS, &cc.Options{Col: col, Compact: true})
		},
	}
	for name, call := range direct {
		rt1, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunKernel(rt1, collective.NewComm(rt1), KernelSpec{
			Kernel: name, Graph: g, Col: col, Compact: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt2, err := pgas.New(testMachine(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		d := call(rt2)
		if res.Components != d.Components || res.Iterations != d.Iterations || res.Run.SimNS != d.Run.SimNS {
			t.Fatalf("%s dispatch diverged: components %d vs %d, rounds %d vs %d, sim %v vs %v",
				name, res.Components, d.Components, res.Iterations, d.Iterations, res.Run.SimNS, d.Run.SimNS)
		}
		for i := range d.Labels {
			if res.Labels[i] != d.Labels[i] {
				t.Fatalf("%s label[%d]: dispatched %d, direct %d", name, i, res.Labels[i], d.Labels[i])
			}
		}
	}
}

// TestRunKernelSanitizedOptionsParity: the registry must accept exactly
// what the kernels accept — VirtualThreads 0 means "disabled", not an
// error — while still classifying genuinely invalid options.
func TestRunKernelSanitizedOptionsParity(t *testing.T) {
	g := testGraph(64, 90, 2)
	rt, err := pgas.New(testMachine(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	comm := collective.NewComm(rt)
	if _, err := RunKernel(rt, comm, KernelSpec{
		Kernel: "cc/coalesced", Graph: g, Col: &collective.Options{VirtualThreads: 0},
	}); err != nil {
		t.Fatalf("VirtualThreads 0 rejected: %v", err)
	}
}
