package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pgasgraph/client"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/serve"
)

// toyShapes are the four workloads at a size the whole set finishes in a
// few seconds, so tier-1 go test, go vet and -race -short cover the
// harness end to end.
var toyShapes = map[string]shape{
	"cc-inproc":    {logN: 10, logM: 12, ops: 4, perSlice: 2, setups: 2, yardReps: 1},
	"cc-wire":      {logN: 10, logM: 12, ops: 4, perSlice: 2, perCluster: 2, setups: 2, yardReps: 1},
	"serve-query":  {logN: 10, logM: 12, ops: 40, perSlice: 20, lookups: 128, setups: 2, yardReps: 1},
	"serve-insert": {logN: 10, logM: 10, ops: 8, perSlice: 4, lookups: 128, insertEdges: 64, setups: 2, yardReps: 1},
}

var toyProbes = probeSizes{reps: 2, microReps: 5, batches: 8, inserts: 2, wireOps: 2, barriers: 4, wireBlockKB: 16}

// socketDir is a short-named scratch directory: unix socket paths are
// limited to 108 bytes.
func socketDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "pgb")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func TestSmokeAllWorkloads(t *testing.T) {
	dir := socketDir(t)
	sims := map[string]float64{}
	for _, spec := range workloadSpecs {
		sh := toyShapes[spec.name]
		r, err := runUntraced(spec, sh, 7, dir)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if r.attempted != sh.ops || r.failed != 0 || r.samples != sh.ops {
			t.Errorf("%s: attempted %d failed %d samples %d, want %d 0 %d", spec.name, r.attempted, r.failed, r.samples, sh.ops, sh.ops)
		}
		for _, m := range endToEnd {
			v, ok := r.metrics[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", spec.name, m.name, v)
			}
		}
		res := r.result()
		if !res.Correct || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: result %+v", spec.name, res)
		}
		sims[spec.name] = r.metrics["sim_ms"]
	}
	// The sim clock is the paper's clock: the same work over sockets must
	// cost exactly the same simulated time as in process.
	if sims["cc-inproc"] != sims["cc-wire"] {
		t.Errorf("sim_ms differs: inproc %v, wire %v", sims["cc-inproc"], sims["cc-wire"])
	}
}

func TestSmokeTracedPass(t *testing.T) {
	dir := socketDir(t)
	names := []string{"cc-wire", "serve-insert"}
	if !testing.Short() {
		names = workloadNames()
	}
	for _, name := range names {
		spec, _ := findWorkload(name)
		spanFile := filepath.Join(dir, name+".spans.jsonl")
		tr, err := runTraced(spec, toyShapes[name], 5, dir, toyProbes, spanFile)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.failed != 0 || tr.spans == 0 {
			t.Errorf("%s: failed %d, spans %d", name, tr.failed, tr.spans)
		}
		for _, l := range perLayer {
			if v, ok := tr.metrics[l.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, l.name, v)
			}
		}
		if len(tr.metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(tr.metrics), len(perLayer))
		}

		// The span file: one JSON object per line, every parent known,
		// every op span inside its slice.
		data, err := os.ReadFile(spanFile)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]spanRecord{}
		var spans []spanRecord
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s spanRecord
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", name, line, err)
			}
			byID[s.ID] = s
			spans = append(spans, s)
		}
		if len(spans) != tr.spans {
			t.Errorf("%s: %d spans in file, %d reported", name, len(spans), tr.spans)
		}
		ops := 0
		for _, s := range spans {
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %d ends before it starts", name, s.ID)
			}
			if s.Parent != 0 {
				p, ok := byID[s.Parent]
				if !ok {
					t.Errorf("%s: span %d has unknown parent %d", name, s.ID, s.Parent)
				} else if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
					t.Errorf("%s: span %d (%s) escapes its parent %d (%s)", name, s.ID, s.Name, p.ID, p.Name)
				}
			}
			if s.Name == "op" && s.Op >= 0 {
				ops++
			}
		}
		if ops == 0 {
			t.Errorf("%s: no op spans", name)
		}
	}
}

// The input is a pure function of --seed, and always of the one kind:
// vertex 0 inside the largest component, also on the sparse input where a
// fifth of the raw generator seeds would put it outside.
func TestPickInput(t *testing.T) {
	sh := toyShapes["serve-insert"]
	redirected := 0
	for seed := uint64(1); seed <= 30; seed++ {
		req, g, err := pickInput(ccLoad, sh, seed)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := pickInput(ccLoad, sh, seed)
		if err != nil || again != req {
			t.Fatalf("seed %d: %+v then %+v (%v)", seed, req, again, err)
		}
		if req.Seed != seed {
			redirected++
		}
		uf := oracleCC(g.N, g.U, g.V)
		for v := int64(0); v < g.N; v++ {
			if uf.compSize(v) > uf.compSize(0) {
				t.Fatalf("seed %d: vertex %d's component is larger than vertex 0's", seed, v)
			}
		}
	}
	if redirected == 0 || redirected == 30 {
		t.Errorf("%d of 30 seeds redirected; expected some, not all", redirected)
	}
}

// fakeWorkload fails the ops it is told to.
type fakeWorkload struct {
	fail   map[int]bool
	slices []int
}

func (f *fakeWorkload) prepare() error          { return nil }
func (f *fakeWorkload) setup(*recorder) error   { return nil }
func (f *fakeWorkload) teardown() error         { return nil }
func (f *fakeWorkload) simMS() float64          { return 1 }
func (f *fakeWorkload) beforeSlice(i int) error { f.slices = append(f.slices, i); return nil }
func (f *fakeWorkload) op(i int, rec *recorder, parent openSpan) (time.Duration, error) {
	sp := rec.begin("op", i, parent)
	d := rec.end(sp)
	if f.fail[i] {
		return 0, errors.New("wrong answer")
	}
	return d + time.Microsecond, nil
}

// A failed op counts against ops attempted and never contributes a
// latency; slices are cut by op count.
func TestLoopCountsFailedOps(t *testing.T) {
	y, err := newYards(1)
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	w := &fakeWorkload{fail: map[int]bool{3: true, 8: true}}
	res, err := runLoop(w, 10, 4, y, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 10 || res.failed != 2 || len(res.opMS) != 8 {
		t.Errorf("attempted %d failed %d latencies %d, want 10 2 8", res.attempted, res.failed, len(res.opMS))
	}
	if want := []int{0, 4, 8}; !reflect.DeepEqual(w.slices, want) {
		t.Errorf("slices started at %v, want %v", w.slices, want)
	}
	// One boundary before each slice and one after the last.
	if len(y.cpuMS) != 4 || len(y.sockMS) != 4 {
		t.Errorf("%d cpu / %d sock yardstick readings, want %d", len(y.cpuMS), len(y.sockMS), 4)
	}
}

// A wrong label is a failed op on the real workload, and the run reports
// it as incorrect.
func TestWrongLabelFailsTheOp(t *testing.T) {
	y, err := newYards(1)
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	w := newCCInproc(11, toyShapes["cc-inproc"])
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	w.oracle.labels[5]++ // now every answer disagrees with the oracle at vertex 5
	res, err := runLoop(w, 3, 2, y, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 3 || len(res.opMS) != 0 {
		t.Errorf("failed %d latencies %d, want 3 0", res.failed, len(res.opMS))
	}
	r := &runResult{attempted: res.attempted, failed: res.failed, metrics: map[string]float64{}}
	if r.result().Correct {
		t.Error("run with failed ops reported correct")
	}
}

func TestCCOracleRejectsWrongAnswers(t *testing.T) {
	var in ccInput
	if err := in.prepare(toyShapes["cc-inproc"], 2); err != nil {
		t.Fatal(err)
	}
	o := in.oracle
	good := func() *serve.KernelResult {
		return &serve.KernelResult{Labels: append([]int64(nil), o.labels...), Components: o.comps, Run: &pgas.Result{SimNS: 5}}
	}
	if err := o.check(good()); err != nil {
		t.Fatalf("oracle rejects its own labels: %v", err)
	}
	cases := []struct {
		name   string
		tamper func(rs []*serve.KernelResult)
	}{
		{"label on node 0", func(rs []*serve.KernelResult) { rs[0].Labels[9]++ }},
		{"component count", func(rs []*serve.KernelResult) { rs[0].Components++ }},
		{"short labels", func(rs []*serve.KernelResult) { rs[0].Labels = rs[0].Labels[1:] }},
		{"label sum on node 2", func(rs []*serve.KernelResult) { rs[2].Labels[0] += 3 }},
		{"sim clock on node 3", func(rs []*serve.KernelResult) { rs[3].Run.SimNS++ }},
	}
	for _, c := range cases {
		rs := []*serve.KernelResult{good(), good(), good(), good()}
		if err := o.checkWire(rs); err != nil {
			t.Fatalf("%s: clean results rejected: %v", c.name, err)
		}
		c.tamper(rs)
		if err := o.checkWire(rs); err == nil {
			t.Errorf("%s: tampered results accepted", c.name)
		}
	}
}

func TestQueryPlanRejectsWrongAnswers(t *testing.T) {
	load := queryLoad(toyShapes["serve-query"], 4)
	g, err := serve.Generate(&load)
	if err != nil {
		t.Fatal(err)
	}
	p := newQueryPlan(g, newRand(4), 2, 128)
	q := newQueryPlan(g, newRand(4), 2, 128)
	if !reflect.DeepEqual(p.batches, q.batches) || !reflect.DeepEqual(p.expect, q.expect) {
		t.Fatal("the same seed gave a different op sequence")
	}
	if reflect.DeepEqual(p.batches, newQueryPlan(g, newRand(5), 2, 128).batches) {
		t.Fatal("another seed gave the same op sequence")
	}

	// A correct answer vector: oracle values, and for tree parents a real
	// neighbour (or -1 on an isolated vertex).
	answers := func() []int64 {
		ans := make([]int64, len(p.batches[0]))
		for j, qu := range p.batches[0] {
			ans[j] = p.expect[0][j]
			if ans[j] == answerStructural {
				ans[j] = -1
				if row := p.adj.nbr[p.adj.off[qu.U]:p.adj.off[qu.U+1]]; len(row) > 0 {
					ans[j] = int64(row[0])
				}
			}
		}
		return ans
	}
	if err := p.check(0, answers()); err != nil {
		t.Fatalf("oracle answers rejected: %v", err)
	}
	kind := func(op client.Op) int {
		for j, qu := range p.batches[0] {
			if qu.Op == op {
				return j
			}
		}
		t.Fatalf("no %s lookup in the batch", op)
		return -1
	}
	nonNeighbour := func(u int64) int64 {
		for v := int64(0); ; v++ {
			if v != u && !p.adj.hasEdge(u, v) {
				return v
			}
		}
	}
	cases := []struct {
		name   string
		tamper func(ans []int64) []int64
	}{
		{"same-component flipped", func(a []int64) []int64 { a[kind(client.SameComponent)] ^= 1; return a }},
		{"component size off by one", func(a []int64) []int64 { a[kind(client.ComponentSize)]++; return a }},
		{"distance off by one", func(a []int64) []int64 { a[kind(client.Distance)]++; return a }},
		{"weighted distance off by one", func(a []int64) []int64 { a[6]--; return a }},
		{"tree parent not a neighbour", func(a []int64) []int64 {
			j := kind(client.TreeParent)
			a[j] = nonNeighbour(p.batches[0][j].U)
			return a
		}},
		{"answer missing", func(a []int64) []int64 { return a[1:] }},
	}
	for _, c := range cases {
		if err := p.check(0, c.tamper(answers())); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// Two vertices of one component cannot both be its forest root.
	p.rootOf = map[int64]int64{}
	var roots []int
	for j, qu := range p.batches[0] {
		if qu.Op == client.TreeParent && p.uf.label(qu.U) == p.uf.label(p.batches[0][3].U) {
			roots = append(roots, j)
		}
	}
	if len(roots) >= 2 && p.batches[0][roots[0]].U != p.batches[0][roots[1]].U {
		ans := answers()
		ans[roots[0]], ans[roots[1]] = -1, -1
		if err := p.check(0, ans); err == nil {
			t.Error("two roots in one component: accepted")
		}
	}
}

func TestInsertPlanRejectsWrongAnswers(t *testing.T) {
	load := ccLoad(toyShapes["serve-insert"], 6)
	g, err := serve.Generate(&load)
	if err != nil {
		t.Fatal(err)
	}
	p := newInsertPlan(g, newRand(6), 3, 64, 128)
	if !reflect.DeepEqual(p.edges, newInsertPlan(g, newRand(6), 3, 64, 128).edges) {
		t.Fatal("the same seed gave a different op sequence")
	}
	// Inserts only ever merge components, and the sparse input has plenty
	// to merge.
	if !(p.uf0.comps > p.comps[0] && p.comps[0] > p.comps[1] && p.comps[1] > p.comps[2]) {
		t.Errorf("component counts %d -> %v do not fall", p.uf0.comps, p.comps)
	}
	good := append([]int64(nil), p.expect[1]...)
	if err := p.check(1, len(p.edges[1]), p.comps[1], good); err != nil {
		t.Fatalf("oracle answers rejected: %v", err)
	}
	// The lookups that name a just-inserted edge must see it.
	for j, q := range p.batches[1] {
		if j%4 == 0 && (q.Op != client.SameComponent || p.expect[1][j] != 1) {
			t.Errorf("lookup %d does not reflect the insert: %+v -> %d", j, q, p.expect[1][j])
		}
	}
	stale := append([]int64(nil), good...)
	stale[0] = 0 // the answer a server that ignored the insert would give
	sized := append([]int64(nil), good...)
	sized[1]--
	cases := []struct {
		name  string
		edges int
		comps int64
		ans   []int64
	}{
		{"component count of the previous batch", 64, p.comps[0], good},
		{"edge count", 63, p.comps[1], good},
		{"insert not visible to same-component", 64, p.comps[1], stale},
		{"component size off by one", 64, p.comps[1], sized},
		{"answer missing", 64, p.comps[1], good[1:]},
	}
	for _, c := range cases {
		if err := p.check(1, c.edges, c.comps, c.ans); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
