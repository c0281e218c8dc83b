package main

// The traced pass: the workload's op sequence with a span around every
// op, then a fixed battery of probes that time calls *into* each layer
// from outside, on the workload's own graph. Spans are recorded here, in
// the benchmark; timers inside the program are a later change. End-to-end
// metrics never come from this pass.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pgasgraph/client"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/psort"
	"pgasgraph/internal/sched"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/sssp"
	"pgasgraph/internal/trace"
)

// layerMetric is one BENCHMARK.json per_layer entry.
type layerMetric struct {
	name, unit, better string
}

// perLayer is every per-layer metric, in report order; the prefix is the
// module that owns the number. README.md says which end-to-end metric
// each should move, on which workload.
var perLayer = []layerMetric{
	{"load.raw_op_p50_ms", "ms", "lower"},
	{"load.op_p90_ms", "ms", "lower"},
	{"load.op_p99_ms", "ms", "lower"},
	{"load.yard_cpu_ms", "ms", "lower"},
	{"load.yard_sock_ms", "ms", "lower"},
	{"load.yard_spread", "frac", "lower"},
	{"load.trace_overhead_frac", "frac", "lower"},
	{"load.residual_frac", "frac", "lower"},

	{"graph.gen_ms", "ms", "lower"},

	{"pgas.new_ms", "ms", "lower"},
	{"pgas.empty_region_us", "us", "lower"},
	{"pgas.barrier_us", "us", "lower"},
	{"pgas.sim_wait_frac", "frac", "lower"},
	{"pgas.sim_comm_frac", "frac", "lower"},
	{"pgas.sim_sort_frac", "frac", "lower"},
	{"pgas.remote_ops_per_op", "count", "lower"},
	{"pgas.messages_per_op", "count", "lower"},
	{"pgas.sim_bytes_per_op", "B", "lower"},

	{"psort.bucket_ms", "ms", "lower"},
	{"sched.gather_ms", "ms", "lower"},

	{"collective.plan_ms", "ms", "lower"},
	{"collective.getd_reuse_ms", "ms", "lower"},
	{"collective.getd_oneshot_ms", "ms", "lower"},
	{"collective.setdmin_ms", "ms", "lower"},
	{"collective.calls_per_op", "count", "lower"},
	{"collective.plan_builds_per_op", "count", "lower"},
	{"collective.plan_reuses_per_op", "count", "higher"},
	{"collective.imbalance", "ratio", "lower"},
	{"collective.wall_frac", "frac", "lower"},

	{"cc.wall_ms", "ms", "lower"},
	{"cc.rounds", "count", "lower"},
	{"cc.fastsv_wall_ms", "ms", "lower"},
	{"cc.fastsv_rounds", "count", "lower"},
	{"cc.rmat_wall_ms", "ms", "lower"},
	{"cc.rmat_imbalance", "ratio", "lower"},
	{"mst.wall_ms", "ms", "lower"},
	{"mst.rounds", "count", "lower"},
	{"bfs.wall_ms", "ms", "lower"},
	{"sssp.wall_ms", "ms", "lower"},

	{"wiretransport.connect_ms", "ms", "lower"},
	{"wiretransport.get_small_us", "us", "lower"},
	{"wiretransport.get_mb_per_s", "MB/s", "higher"},
	{"wiretransport.put_small_us", "us", "lower"},
	{"wiretransport.putmin_us", "us", "lower"},
	{"wiretransport.rendezvous_us", "us", "lower"},
	{"wiretransport.empty_region_ms", "ms", "lower"},
	{"wiretransport.region_growth_us_per_op", "us", "lower"},
	{"wiretransport.op_growth_ratio", "ratio", "lower"},
	{"wiretransport.writes_per_op", "count", "lower"},
	{"wiretransport.wire_over_inproc", "ratio", "lower"},

	{"serve.query_ms", "ms", "lower"},
	{"serve.query_repeat_ms", "ms", "lower"},
	{"serve.insert_ms", "ms", "lower"},
	{"serve.codec_encode_us", "us", "lower"},
	{"serve.codec_decode_us", "us", "lower"},
	{"serve.gathers_per_batch", "count", "lower"},
	{"serve.plan_builds_per_batch", "count", "lower"},
	{"serve.incremental_frac", "frac", "higher"},
	{"serve.insert_rounds", "count", "lower"},

	{"client.rtt_us", "us", "lower"},
	{"client.query_ms", "ms", "lower"},
	{"client.insert_ms", "ms", "lower"},
	{"client.query_after_insert_ms", "ms", "lower"},
	{"client.req_bytes", "B", "lower"},
	{"client.resp_bytes", "B", "lower"},
}

var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

// collectiveKinds are the names collective.Comm reports to its tracer.
var collectiveKinds = []string{"GetD", "SetD", "SetDMin", "SetDAdd", "GetDPair", "Exchange", "ExchangePairs"}

// probeSizes scales the probe battery; the toy sizes keep the smoke test
// inside its budget.
type probeSizes struct {
	reps        int // repetitions of millisecond-scale probes
	microReps   int // repetitions of microsecond-scale probes
	batches     int // query batches per serve/client series
	inserts     int // insert ops per path (client, in-process)
	wireOps     int // timed kernel runs on the probe cluster
	barriers    int // barriers in the pgas.barrier_us region
	wireBlockKB int // size of the bulk Get block
}

var fullProbes = probeSizes{reps: 5, microReps: 200, batches: 256, inserts: 16, wireOps: 10, barriers: 16, wireBlockKB: 1024}

// tracedResult is what --trace 1 prints.
type tracedResult struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	samples   int
	spans     int
	spanFile  string
	metrics   map[string]float64
}

// probes carries the battery's shared state.
type probes struct {
	rec  *recorder
	sz   probeSizes
	sh   shape
	seed uint64
	dir  string

	load client.LoadReq // the workload's graph as the program generates it
	g    *graph.Graph   // the same graph, weighted, for every kernel
	plan *queryPlan     // oracles and lookup batches on g
	cc   *ccOracle      // the same components, as a kernel-result check
	m    map[string]float64

	requests []int64 // both endpoints of every edge: what the CC kernels ask for

	// queryAfterInsertMS is the in-process twin of
	// client.query_after_insert_ms; it only feeds the residual.
	queryAfterInsertMS float64
}

// timed runs fn reps times under spans called name and returns the median
// duration in ms. check, when not nil, runs after every repetition,
// outside the span: verifying an answer (and resetting state for the next
// repetition) is not part of what is timed.
func (p *probes) timed(name string, reps int, fn, check func() error) (float64, error) {
	var all []float64
	for k := 0; k < reps; k++ {
		sp := p.rec.begin(name, noOp, openSpan{})
		err := fn()
		d := p.rec.end(sp)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		all = append(all, ms(d))
	}
	return median(all), nil
}

// runTraced is the --trace 1 pass.
func runTraced(spec workloadSpec, sh shape, seed uint64, dir string, sz probeSizes, spanFile string) (*tracedResult, error) {
	y, err := newYards(sh.yardReps)
	if err != nil {
		return nil, err
	}
	defer y.close()
	rec := newRecorder()

	// The op sequence, half as long as the untraced pass, slices
	// alternately traced and untraced: their two medians are the tracing
	// overhead.
	lsh := sh.scaled(runSeconds / 2)
	if lsh.ops > sh.ops {
		lsh = sh
	}
	w := spec.build(seed, lsh, dir)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", spec.name, err)
	}
	sp := rec.begin("setup", noOp, openSpan{})
	err = w.setup(rec)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	loop, err := runLoop(w, lsh.ops, lsh.perSlice, y, rec, true)
	if terr := w.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if len(loop.opMS) == 0 {
		return nil, fmt.Errorf("%s: every op failed, first %s", spec.name, loop.failures[0])
	}

	load, _, err := pickInput(spec.load, sh, seed)
	if err != nil {
		return nil, err
	}
	p := &probes{rec: rec, sz: sz, sh: sh, seed: seed, dir: dir, load: load, m: map[string]float64{}}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("%s: probe %w", spec.name, err)
	}

	level := y.level()
	var traced, untraced []float64
	for i, d := range loop.opMS {
		if loop.traced[i] {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	opP50 := median(loop.opMS)
	p.m["load.raw_op_p50_ms"] = opP50
	p.m["load.op_p90_ms"] = percentile(loop.opMS, 0.90) / level
	p.m["load.op_p99_ms"] = percentile(loop.opMS, 0.99) / level
	p.m["load.yard_cpu_ms"] = mean(y.cpuMS)
	p.m["load.yard_sock_ms"] = mean(y.sockMS)
	p.m["load.yard_spread"] = math.Max(iqrSpread(y.cpuMS), iqrSpread(y.sockMS))
	p.m["load.trace_overhead_frac"] = 0
	if len(traced) > 0 && len(untraced) > 0 {
		p.m["load.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	}
	p.m["load.residual_frac"] = 1 - p.accounted(spec.name)/opP50

	for _, l := range perLayer {
		if _, ok := p.m[l.name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", spec.name, l.name)
		}
	}
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeFile(spanFile); err != nil {
		return nil, err
	}
	return &tracedResult{
		workload: spec.name, attempted: loop.attempted, failed: loop.failed, failures: loop.failures, samples: len(loop.opMS),
		spans: len(rec.spans), spanFile: spanFile, metrics: p.m,
	}, nil
}

// accounted is the part of one op's time, in ms, that the layer probes
// explain on the named workload; load.residual_frac is the rest. README.md
// gives the reasoning behind each sum.
func (p *probes) accounted(workloadName string) float64 {
	m := p.m
	codec := (m["serve.codec_encode_us"] + m["serve.codec_decode_us"]) / 1e3
	rtt := m["client.rtt_us"] / 1e3
	switch workloadName {
	case "cc-inproc":
		return m["collective.wall_frac"] * m["cc.wall_ms"]
	case "cc-wire":
		return m["cc.wall_ms"] + m["wiretransport.empty_region_ms"]
	case "serve-query":
		return rtt + codec + m["serve.query_ms"]
	case "serve-insert":
		return 2*rtt + codec + m["serve.insert_ms"] + p.queryAfterInsertMS
	}
	return 0
}

// run executes the whole battery in a fixed order.
func (p *probes) run() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"graph", p.probeGraph},
		{"pgas", p.probePgas},
		{"psort/sched", p.probeSortSched},
		{"collective", p.probeCollective},
		{"kernels", p.probeKernels},
		{"wiretransport", p.probeWire},
		{"serve/client", p.probeServe},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// probeGraph times the program's generator on the workload's own request
// and builds what every later probe shares: the weighted graph, its
// oracles, and the request vector the CC kernels issue.
func (p *probes) probeGraph() error {
	var g *graph.Graph
	genMS, err := p.timed("graph.gen", 1, func() (err error) {
		g, err = serve.Generate(&p.load)
		return err
	}, nil)
	if err != nil {
		return err
	}
	p.m["graph.gen_ms"] = genMS
	if !g.Weighted() {
		g = graph.WithRandomWeights(g, p.load.Seed+1)
	}
	p.g = g
	p.load.Weighted = true
	p.plan = newQueryPlan(g, newRand(p.seed).split(0x9b0be), p.sz.batches, 128)
	p.cc = ccOracleFrom(p.plan.uf)
	p.requests = make([]int64, 2*len(g.U))
	for i := range g.U {
		p.requests[2*i], p.requests[2*i+1] = int64(g.U[i]), int64(g.V[i])
	}
	return nil
}

// newRuntime is the in-process cluster the probes run on.
func newRuntime() (*pgas.Runtime, *collective.Comm, error) {
	rt, err := pgas.New(machineConfig())
	if err != nil {
		return nil, nil, err
	}
	return rt, collective.NewComm(rt), nil
}

func (p *probes) probePgas() error {
	newMS, err := p.timed("pgas.New", p.sz.reps, func() error {
		_, err := pgas.New(machineConfig())
		return err
	}, nil)
	if err != nil {
		return err
	}
	p.m["pgas.new_ms"] = newMS
	rt, err := pgas.New(machineConfig())
	if err != nil {
		return err
	}
	emptyMS, _ := p.timed("pgas.Run empty", p.sz.microReps, func() error {
		rt.Run(func(*pgas.Thread) {})
		return nil
	}, nil)
	barrierMS, _ := p.timed("pgas.Run barriers", p.sz.microReps, func() error {
		rt.Run(func(th *pgas.Thread) {
			for b := 0; b < p.sz.barriers; b++ {
				th.Barrier()
			}
		})
		return nil
	}, nil)
	p.m["pgas.empty_region_us"] = emptyMS * 1e3
	p.m["pgas.barrier_us"] = (barrierMS - emptyMS) * 1e3 / float64(p.sz.barriers)
	return nil
}

// probeSortSched times the two leaf routines under a collective on what
// one thread of the CC kernel hands them: its share of the request keys,
// and the requests one thread's block serves.
func (p *probes) probeSortSched() error {
	const s = nodes * threadsPerNode
	idx := p.requests
	blk := (p.g.N + s - 1) / s

	lo, hi := pgas.Span(int64(len(idx)), s, 0)
	items := idx[lo:hi]
	keys := make([]int32, len(items))
	for i, v := range items {
		keys[i] = int32(v / blk)
	}
	sorted := make([]int64, len(items))
	pos := make([]int32, len(items))
	offs := make([]int64, s+1)
	cursor := make([]int64, s)
	bucketMS, err := p.timed("psort.BucketByKeyInto", p.sz.reps, func() error {
		psort.BucketByKeyInto(items, keys, s, sorted, pos, offs, cursor)
		return nil
	}, func() error {
		for b := 0; b < s; b++ {
			for _, v := range sorted[offs[b]:offs[b+1]] {
				if v/blk != int64(b) {
					return fmt.Errorf("item %d in bucket %d", v, b)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["psort.bucket_ms"] = bucketMS

	// Thread 0's served segment: every request that lands in its block.
	// The clock runs on thread 0, inside the region, around Gather alone.
	local := make([]int64, blk)
	for i := range local {
		local[i] = int64(i) * 3
	}
	var seg []int64
	for _, v := range idx {
		if v < blk {
			seg = append(seg, v)
		}
	}
	out := make([]int64, len(seg))
	rt, err := pgas.New(machineConfig())
	if err != nil {
		return err
	}
	var gather []float64
	for k := 0; k < p.sz.reps; k++ {
		rt.Run(func(th *pgas.Thread) {
			if th.ID != 0 {
				return
			}
			sp := p.rec.begin("sched.Gather", noOp, openSpan{})
			sched.Gather(th, local, seg, out, colOptions().VirtualThreads, true, &sched.Scratch{})
			gather = append(gather, ms(p.rec.end(sp)))
		})
		for j, ix := range seg {
			if out[j] != ix*3 {
				return fmt.Errorf("sched.Gather: out[%d] = %d, want %d", j, out[j], ix*3)
			}
		}
	}
	p.m["sched.gather_ms"] = median(gather)
	return nil
}

// probeCollective times one planned gather's two halves, a one-shot
// gather and a one-shot min-scatter, each as a whole SPMD region over the
// graph's edge endpoints.
func (p *probes) probeCollective() error {
	rt, comm, err := newRuntime()
	if err != nil {
		return err
	}
	idx := p.requests
	out := make([]int64, len(idx))
	d := rt.NewSharedArray("probe.d", p.g.N)
	d.FillIdentity()
	opts := colOptions()
	plan := comm.NewPlan()
	total := int64(len(idx))
	// d is the identity, so a gather must return its own request vector;
	// out is wiped after each check so the next gather cannot pass on the
	// last one's answer.
	checkGather := func() error {
		for j, ix := range idx {
			if out[j] != ix {
				return fmt.Errorf("out[%d] = %d, want %d", j, out[j], ix)
			}
			out[j] = -1
		}
		return nil
	}

	planMS, _ := p.timed("collective.PlanRequests", p.sz.reps, func() error {
		rt.Run(func(th *pgas.Thread) {
			lo, hi := th.Span(total)
			plan.PlanRequests(th, d, idx[lo:hi], opts, nil)
		})
		return nil
	}, nil)
	reuseMS, err := p.timed("collective.Plan.GetD", p.sz.reps, func() error {
		rt.Run(func(th *pgas.Thread) {
			lo, hi := th.Span(total)
			plan.GetD(th, d, out[lo:hi])
		})
		return nil
	}, checkGather)
	if err != nil {
		return err
	}
	oneshotMS, err := p.timed("collective.GetD", p.sz.reps, func() error {
		rt.Run(func(th *pgas.Thread) {
			lo, hi := th.Span(total)
			comm.GetD(th, d, idx[lo:hi], out[lo:hi], opts, nil)
		})
		return nil
	}, checkGather)
	if err != nil {
		return err
	}
	// Every request tries to lower d[i] to i - 1; after the region each
	// requested element must hold exactly that (index 0 excepted: it is
	// the offloaded hotspot, whose write is dropped).
	vals := make([]int64, len(idx))
	for j, ix := range idx {
		vals[j] = ix - 1
	}
	setMS, err := p.timed("collective.SetDMin", p.sz.reps, func() error {
		rt.Run(func(th *pgas.Thread) {
			lo, hi := th.Span(total)
			comm.SetDMin(th, d, idx[lo:hi], vals[lo:hi], opts, nil)
		})
		return nil
	}, func() error {
		raw := d.Raw()
		for _, ix := range idx {
			if ix != opts.OffloadIndex && raw[ix] != ix-1 {
				return fmt.Errorf("d[%d] = %d, want %d", ix, raw[ix], ix-1)
			}
		}
		d.FillIdentity()
		return nil
	})
	if err != nil {
		return err
	}
	p.m["collective.plan_ms"] = planMS
	p.m["collective.getd_reuse_ms"] = reuseMS
	p.m["collective.getd_oneshot_ms"] = oneshotMS
	p.m["collective.setdmin_ms"] = setMS
	return nil
}

// kernelRun dispatches one registry kernel through serve.RunKernel on a
// warm runtime, timing the second of two runs.
func (p *probes) kernelRun(rt *pgas.Runtime, comm *collective.Comm, spec serve.KernelSpec, check func(*serve.KernelResult) error) (*serve.KernelResult, float64, error) {
	spec.Col = colOptions()
	var res *serve.KernelResult
	var wall float64
	for k := 0; k < 2; k++ {
		sp := p.rec.begin("serve.RunKernel "+spec.Kernel, noOp, openSpan{})
		r, err := serve.RunKernel(rt, comm, spec)
		wall = ms(p.rec.end(sp))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", spec.Kernel, err)
		}
		if err := check(r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", spec.Kernel, err)
		}
		res = r
	}
	return res, wall, nil
}

// collectedRun runs spec once more with col attached (and nothing else
// in it) and returns the run's wall ms.
func (p *probes) collectedRun(rt *pgas.Runtime, comm *collective.Comm, col *trace.Collector, spec serve.KernelSpec) (float64, error) {
	spec.Col = colOptions()
	col.Reset()
	comm.SetTracer(col)
	defer comm.SetTracer(nil)
	sp := p.rec.begin("serve.RunKernel "+spec.Kernel+" collected", noOp, openSpan{})
	_, err := serve.RunKernel(rt, comm, spec)
	return ms(p.rec.end(sp)), err
}

func checkDist(want []int64, unreached int64) func(*serve.KernelResult) error {
	return func(r *serve.KernelResult) error {
		if len(r.Dist) != len(want) {
			return fmt.Errorf("%d distances, oracle %d", len(r.Dist), len(want))
		}
		for i, d := range want {
			if d == oracleUnreached {
				d = unreached
			}
			if r.Dist[i] != d {
				return fmt.Errorf("dist[%d] = %d, oracle %d", i, r.Dist[i], d)
			}
		}
		return nil
	}
}

// probeKernels is the kernel table — each registry kernel the workloads
// lean on, once, on the workload graph — plus what the headline kernel's
// pgas.Result and a trace.Collector say about one run of it.
func (p *probes) probeKernels() error {
	rt, comm, err := newRuntime()
	if err != nil {
		return err
	}
	col := trace.NewCollector(rt.NumThreads())
	g := p.g

	ccCheck := p.cc.check
	ccSpec := serve.KernelSpec{Kernel: "cc/coalesced", Graph: g, Compact: true}
	cc, ccMS, err := p.kernelRun(rt, comm, ccSpec, ccCheck)
	if err != nil {
		return err
	}
	tracedMS, err := p.collectedRun(rt, comm, col, ccSpec)
	if err != nil {
		return err
	}
	var calls, wallNS int64
	for _, k := range collectiveKinds {
		calls += col.Calls(k)
		wallNS += col.WallNS(k)
	}
	p.m["cc.wall_ms"] = ccMS
	p.m["cc.rounds"] = float64(cc.Iterations)
	p.m["collective.calls_per_op"] = float64(calls)
	p.m["collective.plan_builds_per_op"] = float64(col.PlanBuilds())
	p.m["collective.plan_reuses_per_op"] = float64(col.PlanReuses())
	p.m["collective.imbalance"] = col.Imbalance()
	// Collective wall is summed over participants; per thread, against the
	// wall of the run it was collected on.
	p.m["collective.wall_frac"] = float64(wallNS) / float64(rt.NumThreads()) / 1e6 / tracedMS

	run := cc.Run
	total := run.SumByCategory.Total()
	p.m["pgas.sim_wait_frac"] = run.SumByCategory[sim.CatWait] / total
	p.m["pgas.sim_comm_frac"] = run.SumByCategory[sim.CatComm] / total
	p.m["pgas.sim_sort_frac"] = run.SumByCategory[sim.CatSort] / total
	p.m["pgas.remote_ops_per_op"] = float64(run.RemoteOps)
	p.m["pgas.messages_per_op"] = float64(run.Messages)
	p.m["pgas.sim_bytes_per_op"] = float64(run.Bytes)

	// FastSV runs without edge compaction: with it the kernel mislabels
	// sparse inputs (README.md, "What the first numbers show"), and a probe
	// must not fail on the program's known defects.
	fast, fastMS, err := p.kernelRun(rt, comm, serve.KernelSpec{Kernel: "cc/fastsv", Graph: g}, ccCheck)
	if err != nil {
		return err
	}
	p.m["cc.fastsv_wall_ms"] = fastMS
	p.m["cc.fastsv_rounds"] = float64(fast.Iterations)

	// The skewed input: same size, RMAT degrees, for the load-imbalance
	// question the uniform graph cannot ask.
	rmat := graph.RMAT(int(p.sh.logN), 1<<p.sh.logM, 0.45, 0.25, 0.15, 0.15, p.seed)
	rmatSpec := serve.KernelSpec{Kernel: "cc/coalesced", Graph: rmat, Compact: true}
	_, rmatMS, err := p.kernelRun(rt, comm, rmatSpec, ccOracleFrom(oracleCC(rmat.N, rmat.U, rmat.V)).check)
	if err != nil {
		return err
	}
	if _, err := p.collectedRun(rt, comm, col, rmatSpec); err != nil {
		return err
	}
	p.m["cc.rmat_wall_ms"] = rmatMS
	p.m["cc.rmat_imbalance"] = col.Imbalance()

	wantWeight := oracleMSTWeight(g.N, g.U, g.V, g.W)
	mst, mstMS, err := p.kernelRun(rt, comm, serve.KernelSpec{Kernel: "mst/coalesced", Graph: g, Compact: true},
		func(r *serve.KernelResult) error {
			if r.Weight != wantWeight {
				return fmt.Errorf("forest weight %d, oracle %d", r.Weight, wantWeight)
			}
			return nil
		})
	if err != nil {
		return err
	}
	p.m["mst.wall_ms"] = mstMS
	p.m["mst.rounds"] = float64(mst.Iterations)

	bfsSpec, spSpec := p.plan.specs[1], p.plan.specs[2]
	_, bfsMS, err := p.kernelRun(rt, comm, serve.KernelSpec{Kernel: bfsSpec.Kernel, Graph: g, Src: bfsSpec.Src},
		checkDist(p.plan.bfsDist, bfs.Unreached))
	if err != nil {
		return err
	}
	p.m["bfs.wall_ms"] = bfsMS
	_, spMS, err := p.kernelRun(rt, comm, serve.KernelSpec{Kernel: spSpec.Kernel, Graph: g, Src: spSpec.Src},
		checkDist(p.plan.spDist, sssp.Unreached))
	if err != nil {
		return err
	}
	p.m["sssp.wall_ms"] = spMS
	return nil
}

// probeWin names the window the transport probes expose on every node:
// far above any id a runtime's own counter reaches here.
var probeWin = pgas.Win{Kind: pgas.WinArray, ID: 1 << 30}

// probeWire measures one cluster's life: connect, warm-up, a run of
// kernel ops with an empty region after each (the replica sync that grows
// with every array ever exposed), then the transport primitives between
// node 0 and node 1.
func (p *probes) probeWire() error {
	sp := p.rec.begin("wiretransport.Connect", noOp, openSpan{})
	c, err := connectWire(p.dir)
	p.m["wiretransport.connect_ms"] = ms(p.rec.end(sp))
	if err != nil {
		return err
	}
	err = p.wireProbes(c)
	if cerr := c.close(); err == nil {
		err = cerr
	}
	return err
}

func (p *probes) wireProbes(c *wireCluster) error {
	op := func() (float64, error) {
		results, d, err := c.runKernel(ccSpec(p.g), noOp, p.rec, openSpan{})
		if err != nil {
			return 0, err
		}
		return ms(d), p.cc.checkWire(results)
	}
	emptyRegion := func() (float64, error) {
		return p.timed("wire pgas.Run empty", 3, func() error {
			return firstError(c.each(func(_ int, n *wireNode) error {
				_, err := n.rt.RunE(func(*pgas.Thread) {})
				return err
			}))
		}, nil)
	}

	if _, err := op(); err != nil { // the cluster's warm-up
		return err
	}
	empty0, err := emptyRegion()
	if err != nil {
		return err
	}
	empties := []float64{empty0}
	var opMS []float64
	var writes uint64
	for k := 0; k < p.sz.wireOps; k++ {
		before, err := readProcIO()
		if err != nil {
			return err
		}
		d, err := op()
		if err != nil {
			return err
		}
		after, err := readProcIO()
		if err != nil {
			return err
		}
		writes += after.syscw - before.syscw
		opMS = append(opMS, d)
		e, err := emptyRegion()
		if err != nil {
			return err
		}
		empties = append(empties, e)
	}
	p.m["wiretransport.empty_region_ms"] = empty0
	p.m["wiretransport.region_growth_us_per_op"] = slope(empties) * 1e3
	p.m["wiretransport.op_growth_ratio"] = opMS[len(opMS)-1] / opMS[0]
	p.m["wiretransport.writes_per_op"] = float64(writes) / float64(len(opMS))
	p.m["wiretransport.wire_over_inproc"] = median(opMS) / p.m["cc.wall_ms"]

	// Transport primitives, through the pgas.Transport interface.
	words := p.sz.wireBlockKB * 1024 / 8
	wins := make([][]int64, len(c.nodes))
	for nd, n := range c.nodes {
		wins[nd] = make([]int64, words)
		for i := range wins[nd] {
			wins[nd][i] = int64(nd)<<32 | int64(i)
		}
		n.tr.Expose(probeWin, wins[nd])
	}
	var tr pgas.Transport = c.nodes[0].tr
	const peer = 1
	dst := make([]int64, words)
	getMS, err := p.timed("Transport.Get 8B", p.sz.microReps, func() error {
		return tr.Get(nil, peer, probeWin, 7, dst[:1])
	}, func() error {
		if dst[0] != wins[peer][7] {
			return fmt.Errorf("got %#x, want %#x", dst[0], wins[peer][7])
		}
		return nil
	})
	if err != nil {
		return err
	}
	bulkMS, err := p.timed("Transport.Get block", p.sz.reps*4, func() error {
		return tr.Get(nil, peer, probeWin, 0, dst)
	}, func() error {
		if dst[words-1] != wins[peer][words-1] {
			return fmt.Errorf("block tail %#x, want %#x", dst[words-1], wins[peer][words-1])
		}
		dst[words-1] = 0
		return nil
	})
	if err != nil {
		return err
	}
	putMS, err := p.timed("Transport.Put 8B", p.sz.microReps, func() error {
		return tr.Put(nil, peer, probeWin, 9, []int64{42})
	}, nil)
	if err != nil {
		return err
	}
	minMS, err := p.timed("Transport.PutMin", p.sz.microReps, func() error {
		_, err := tr.PutMin(nil, peer, probeWin, 11, -5)
		return err
	}, nil)
	if err != nil {
		return err
	}
	// Rendezvous is collective: every node calls it the same number of
	// times. It also orders the buffered puts above before the check.
	rdvMS, err := p.timed("Transport.Rendezvous x all", p.sz.microReps, func() error {
		return firstError(c.each(func(_ int, n *wireNode) error {
			_, err := n.tr.Rendezvous(0)
			return err
		}))
	}, nil)
	if err != nil {
		return err
	}
	if wins[peer][9] != 42 || wins[peer][11] != -5 {
		return fmt.Errorf("put/putmin not delivered: %d, %d", wins[peer][9], wins[peer][11])
	}
	p.m["wiretransport.get_small_us"] = getMS * 1e3
	p.m["wiretransport.get_mb_per_s"] = float64(words*8) / 1e6 / (bulkMS / 1e3)
	p.m["wiretransport.put_small_us"] = putMS * 1e3
	p.m["wiretransport.putmin_us"] = minMS * 1e3
	p.m["wiretransport.rendezvous_us"] = rdvMS * 1e3
	return nil
}

func firstError(errs []error) error {
	for nd, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", nd, err)
		}
	}
	return nil
}

// slope is the least-squares slope of ys over 0, 1, 2, ...
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxy, sxx float64
	for i, y := range ys {
		x := float64(i)
		sx, sy, sxy, sxx = sx+x, sy+y, sxy+x*y, sxx+x*x
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// probeServe hosts the pgasd path once and measures it from both sides:
// through the real client over the socket, and through the same resident
// Service in-process with the same batches, so the difference is codec,
// frames and socket wake-ups.
func (p *probes) probeServe() error {
	srv, err := startServer(p.dir)
	if err != nil {
		return err
	}
	err = p.serveProbes(srv)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

func (p *probes) serveProbes(srv *served) error {
	plan := p.plan
	if _, err := srv.loadAndRun(p.rec, p.load, plan.specs, plan.checkRun); err != nil {
		return err
	}
	svc := srv.srv.Service()
	col := trace.NewCollector(svc.Runtime().NumThreads())
	svc.Comm().SetTracer(col)
	rttMS, err := p.timed("client.Info", p.sz.microReps, func() error {
		_, err := srv.c.Info()
		return err
	}, nil)
	if err != nil {
		return err
	}
	p.m["client.rtt_us"] = rttMS * 1e3

	b := 0
	var ans []int64
	clientQueryMS, err := p.timed("client.Query", len(plan.batches), func() (err error) {
		ans, err = srv.c.Query(plan.batches[b])
		return err
	}, func() error {
		b++
		return plan.check(b-1, ans)
	})
	if err != nil {
		return err
	}
	p.m["client.query_ms"] = clientQueryMS

	// In-process: each distinct batch once (plan rebuild), then the
	// identical batch again (plan reuse).
	// The gather and plan-build counts are those of the first kind.
	col.Reset()
	var first, repeat []float64
	var gathers, builds int64
	for b, qs := range plan.batches {
		for k, into := range []*[]float64{&first, &repeat} {
			g0, b0 := col.Calls("GetD"), col.PlanBuilds()
			sp := p.rec.begin([]string{"Service.Query", "Service.Query repeat"}[k], noOp, openSpan{})
			ans, err := svc.Query(qs)
			*into = append(*into, ms(p.rec.end(sp)))
			if err == nil {
				err = plan.check(b, ans)
			}
			if err != nil {
				return fmt.Errorf("Service.Query: %w", err)
			}
			if k == 0 {
				gathers += col.Calls("GetD") - g0
				builds += col.PlanBuilds() - b0
			}
		}
	}
	p.m["serve.query_ms"] = median(first)
	p.m["serve.query_repeat_ms"] = median(repeat)
	p.m["serve.gathers_per_batch"] = float64(gathers) / float64(len(plan.batches))
	p.m["serve.plan_builds_per_batch"] = float64(builds) / float64(len(plan.batches))

	// Codec: one request and its response through WriteMsg / ReadFrame on
	// a buffer, JSON included (the server decodes with json.Unmarshal).
	qs := plan.batches[0]
	ans, err = svc.Query(qs)
	if err != nil {
		return err
	}
	var req, resp bytes.Buffer
	encMS, err := p.timed("serve.WriteMsg", p.sz.microReps, func() error {
		req.Reset()
		resp.Reset()
		if err := serve.WriteMsg(&req, serve.FrameQuery, &serve.QueryReq{Queries: qs}); err != nil {
			return err
		}
		return serve.WriteMsg(&resp, serve.FrameOK, &serve.QueryResp{Answers: ans})
	}, nil)
	if err != nil {
		return err
	}
	decMS, err := p.timed("serve.ReadFrame", p.sz.microReps, func() error {
		var q serve.QueryReq
		var a serve.QueryResp
		for _, m := range []struct {
			buf *bytes.Buffer
			v   interface{}
		}{{&req, &q}, {&resp, &a}} {
			_, payload, err := serve.ReadFrame(bytes.NewReader(m.buf.Bytes()))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(payload, m.v); err != nil {
				return err
			}
		}
		if len(q.Queries) != len(qs) || len(a.Answers) != len(ans) {
			return fmt.Errorf("round trip lost lookups: %d/%d", len(q.Queries), len(a.Answers))
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	p.m["serve.codec_encode_us"] = encMS * 1e3
	p.m["serve.codec_decode_us"] = decMS * 1e3
	p.m["client.req_bytes"] = float64(req.Len())
	p.m["client.resp_bytes"] = float64(resp.Len())

	// Inserts last: the first one drops the distance trees and the forest.
	ins := newInsertPlan(p.g, newRand(p.seed).split(0x1295), 2*p.sz.inserts, 64, 128)
	var cIns, cQuery, sIns, sQuery []float64
	var incremental, rounds int
	for b := 0; b < 2*p.sz.inserts; b++ {
		if b < p.sz.inserts {
			sp := p.rec.begin("client.Insert", noOp, openSpan{})
			ir, err := srv.c.Insert(ins.edges[b])
			cIns = append(cIns, ms(p.rec.end(sp)))
			if err != nil {
				return err
			}
			sp = p.rec.begin("client.Query after insert", noOp, openSpan{})
			ans, err := srv.c.Query(ins.batches[b])
			cQuery = append(cQuery, ms(p.rec.end(sp)))
			if err == nil {
				err = ins.check(b, ir.Edges, ir.Components, ans)
			}
			if err != nil {
				return fmt.Errorf("client insert %d: %w", b, err)
			}
			continue
		}
		sp := p.rec.begin("Service.Insert", noOp, openSpan{})
		rep, err := svc.Insert(ins.edges[b])
		sIns = append(sIns, ms(p.rec.end(sp)))
		if err != nil {
			return err
		}
		sp = p.rec.begin("Service.Query after insert", noOp, openSpan{})
		ans, err := svc.Query(ins.batches[b])
		sQuery = append(sQuery, ms(p.rec.end(sp)))
		if err == nil {
			err = ins.check(b, rep.Edges, rep.Components, ans)
		}
		if err != nil {
			return fmt.Errorf("Service insert %d: %w", b, err)
		}
		if rep.Incremental {
			incremental++
		}
		rounds += rep.Rounds
	}
	p.m["client.insert_ms"] = median(cIns)
	p.m["client.query_after_insert_ms"] = median(cQuery)
	p.m["serve.insert_ms"] = median(sIns)
	p.queryAfterInsertMS = median(sQuery)
	p.m["serve.incremental_frac"] = float64(incremental) / float64(p.sz.inserts)
	p.m["serve.insert_rounds"] = float64(rounds) / float64(p.sz.inserts)
	return nil
}
