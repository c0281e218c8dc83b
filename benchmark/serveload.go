package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"pgasgraph/client"
	"pgasgraph/internal/bfs"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sssp"
)

// served is the cmd/pgasd path hosted in this process: a serve.Server on
// a unix listener and one real client connection to it.
type served struct {
	dir  string // holds the socket; removed at stop
	srv  *serve.Server
	l    net.Listener
	done chan struct{}
	c    *client.Client
}

// startServer listens on a socket in a fresh directory under dir, serves
// it, and dials.
func startServer(dir string) (*served, error) {
	sub, err := os.MkdirTemp(dir, "pgasd-")
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(sub, "sock")
	cfg := serve.Config{Machine: machineConfig(), Col: colOptions()}
	srv := serve.NewServer(func(g *graph.Graph) (*serve.Service, error) { return serve.New(cfg, g) })
	l, err := net.Listen("unix", sock)
	if err != nil {
		_ = os.RemoveAll(sub)
		return nil, err
	}
	s := &served{dir: sub, srv: srv, l: l, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(l) // returns the listener-closed error at stop
	}()
	c, err := client.Dial(sock)
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	s.c = c
	return s, nil
}

// stop hangs up, closes the listener and waits for the accept loop.
func (s *served) stop() error {
	var first error
	if s.c != nil {
		first = s.c.Close()
	}
	if err := s.l.Close(); err != nil && first == nil {
		first = err
	}
	<-s.done
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// loadAndRun loads the generator graph and makes kernels resident,
// returning the summed simulated ms of the kernel runs.
func (s *served) loadAndRun(rec *recorder, req client.LoadReq, specs []client.KernelSpec, check func(i int, r *client.RunResp) error) (float64, error) {
	sp := rec.begin("client.Load", noOp, openSpan{})
	lr, err := s.c.Load(req)
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("load: %w", err)
	}
	if lr.N != req.N || lr.M != req.M {
		return 0, fmt.Errorf("load: got n=%d m=%d, asked n=%d m=%d", lr.N, lr.M, req.N, req.M)
	}
	var simMS float64
	for i, spec := range specs {
		sp := rec.begin("client.Run "+spec.Kernel, noOp, openSpan{})
		r, err := s.c.Run(spec)
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("run %s: %w", spec.Kernel, err)
		}
		if err := check(i, r); err != nil {
			return 0, fmt.Errorf("run %s: %w", spec.Kernel, err)
		}
		simMS += r.SimMS
	}
	return simMS, nil
}

// answerStructural marks an expected answer that is checked by property
// (tree parents), not by value.
const answerStructural = math.MinInt64

// distSum folds distances the way serve.KernelResult.Sum does.
func distSum(dist []int64, unreached int64) int64 {
	var s int64
	for _, d := range dist {
		if d == oracleUnreached {
			d = unreached
		}
		s += d & 0xffffffff
	}
	return s
}

// --- serve-query ---------------------------------------------------------

// queryPlan is a resident-kernel set on one graph with a sequence of
// distinct lookup batches and the oracle answers to each: what the
// serve-query workload sends, and what the serve/client probes reuse on
// every workload's graph.
type queryPlan struct {
	specs   []client.KernelSpec // cc, bfs, sssp, spanning-forest
	uf      *unionFind
	adj     *adjacency
	bfsDist []int64
	spDist  []int64
	ccSum   int64
	batches [][]client.Query
	expect  [][]int64
	rootOf  map[int64]int64 // component label -> the vertex answered as its forest root
}

// newQueryPlan builds the oracles for weighted graph g and n batches of
// lookups lookups: equal parts of the four kinds, interleaved, every
// batch distinct.
func newQueryPlan(g *graph.Graph, r *splitmix, n, lookups int) *queryPlan {
	p := &queryPlan{uf: oracleCC(g.N, g.U, g.V), adj: buildAdjacency(g.N, g.U, g.V, g.W), rootOf: map[int64]int64{}}
	p.ccSum = p.uf.comps
	for _, l := range p.uf.labels() {
		p.ccSum += l
	}

	// Both tree sources sit in the largest component, so distances are
	// real path lengths, not a wall of "unreached".
	giant := int64(0)
	for v := int64(0); v < g.N; v++ {
		if p.uf.compSize(v) > p.uf.compSize(giant) {
			giant = v
		}
	}
	pick := func(not int64) int64 {
		for {
			v := r.intn(g.N)
			if v != not && p.uf.label(v) == p.uf.label(giant) {
				return v
			}
		}
	}
	bfsSrc := pick(-1)
	spSrc := pick(bfsSrc)
	p.bfsDist = oracleBFS(p.adj, bfsSrc)
	p.spDist = oracleDijkstra(p.adj, spSrc)
	p.specs = []client.KernelSpec{
		{Kernel: "cc/coalesced", Compact: true},
		{Kernel: "bfs/coalesced", Src: bfsSrc},
		{Kernel: "sssp/delta-stepping", Src: spSrc},
		{Kernel: "spanning-forest", Compact: true},
	}

	p.batches = make([][]client.Query, n)
	p.expect = make([][]int64, n)
	for b := range p.batches {
		qs := make([]client.Query, lookups)
		ex := make([]int64, lookups)
		for j := range qs {
			u, v := r.intn(g.N), r.intn(g.N)
			switch j % 4 {
			case 0:
				qs[j] = client.Query{Op: client.SameComponent, U: u, V: v}
				if p.uf.label(u) == p.uf.label(v) {
					ex[j] = 1
				}
			case 1:
				qs[j] = client.Query{Op: client.ComponentSize, U: u}
				ex[j] = p.uf.compSize(u)
			case 2:
				src, dist, unreached := bfsSrc, p.bfsDist, bfs.Unreached
				if j%8 == 6 {
					src, dist, unreached = spSrc, p.spDist, sssp.Unreached
				}
				qs[j] = client.Query{Op: client.Distance, U: src, V: v}
				ex[j] = dist[v]
				if ex[j] == oracleUnreached {
					ex[j] = unreached
				}
			case 3:
				qs[j] = client.Query{Op: client.TreeParent, U: u}
				ex[j] = answerStructural
			}
		}
		p.batches[b], p.expect[b] = qs, ex
	}
	return p
}

// checkRun holds the i-th resident kernel's summary against the oracles.
func (p *queryPlan) checkRun(i int, r *client.RunResp) error {
	switch i {
	case 0:
		if r.Components != p.uf.comps || r.Sum != p.ccSum {
			return fmt.Errorf("components %d sum %d, oracle %d / %d", r.Components, r.Sum, p.uf.comps, p.ccSum)
		}
	case 1:
		if want := distSum(p.bfsDist, bfs.Unreached); r.Sum != want {
			return fmt.Errorf("distance sum %d, oracle %d", r.Sum, want)
		}
	case 2:
		if want := distSum(p.spDist, sssp.Unreached); r.Sum != want {
			return fmt.Errorf("distance sum %d, oracle %d", r.Sum, want)
		}
	case 3:
		if r.Components != p.uf.comps {
			return fmt.Errorf("forest components %d, oracle %d", r.Components, p.uf.comps)
		}
	}
	return nil
}

// check holds batch b's answers against the oracles. A tree parent must
// be a graph neighbour, or -1 for exactly one vertex per component.
func (p *queryPlan) check(b int, ans []int64) error {
	qs, expect := p.batches[b], p.expect[b]
	if len(ans) != len(qs) {
		return fmt.Errorf("%d answers to %d lookups", len(ans), len(qs))
	}
	for j, q := range qs {
		if expect[j] != answerStructural {
			if ans[j] != expect[j] {
				return fmt.Errorf("lookup %d (%s u=%d v=%d) = %d, oracle %d", j, q.Op, q.U, q.V, ans[j], expect[j])
			}
			continue
		}
		parent := ans[j]
		if parent == -1 {
			l := p.uf.label(q.U)
			if root, ok := p.rootOf[l]; ok && root != q.U {
				return fmt.Errorf("lookup %d: component %d has two forest roots, %d and %d", j, l, root, q.U)
			}
			p.rootOf[l] = q.U
			continue
		}
		if !p.adj.hasEdge(q.U, parent) {
			return fmt.Errorf("lookup %d: tree parent of %d is %d, not a neighbour", j, q.U, parent)
		}
	}
	return nil
}

// serveQuery drives client.Query batches against four resident kernels on
// the scale-free input.
type serveQuery struct {
	seed uint64
	sh   shape
	dir  string

	load client.LoadReq
	plan *queryPlan

	srv    *served
	setup1 float64 // simulated ms of the resident kernels, last set-up
}

func newServeQuery(seed uint64, sh shape, dir string) *serveQuery {
	return &serveQuery{seed: seed, sh: sh, dir: dir}
}

func (w *serveQuery) prepare() error {
	load, g, err := pickInput(queryLoad, w.sh, w.seed)
	if err != nil {
		return err
	}
	w.load = load
	// +1: batch 0 is the warm-up.
	w.plan = newQueryPlan(g, newRand(w.seed).split(0x5e21), w.sh.ops+1, w.sh.lookups)
	return nil
}

func (w *serveQuery) setup(rec *recorder) error {
	srv, err := startServer(w.dir)
	if err != nil {
		return err
	}
	w.srv = srv
	w.plan.rootOf = map[int64]int64{}
	w.setup1, err = srv.loadAndRun(rec, w.load, w.plan.specs, w.plan.checkRun)
	if err != nil {
		return err
	}
	if _, err := w.op(noOp, rec, openSpan{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *serveQuery) teardown() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.stop()
	w.srv = nil
	return err
}

func (w *serveQuery) beforeSlice(int) error { return nil }

func (w *serveQuery) op(i int, rec *recorder, parent openSpan) (time.Duration, error) {
	b := i + 1 // batch 0 is the warm-up (op noOp)
	sp := rec.begin("op", i, parent)
	ans, err := w.srv.c.Query(w.plan.batches[b])
	d := rec.end(sp)
	if err != nil {
		return 0, err
	}
	return d, w.plan.check(b, ans)
}

func (w *serveQuery) simMS() float64 { return w.setup1 }

// --- serve-insert --------------------------------------------------------

// insertPlan is a sequence of edge batches, each followed by a lookup
// batch that must reflect it, with the incremental oracle's answers.
type insertPlan struct {
	uf0     *unionFind // the graph before any insert (set-up check)
	ccSum   int64
	edges   [][]client.Edge
	comps   []int64 // expected InsertResp.Components after each batch
	batches [][]client.Query
	expect  [][]int64
}

// newInsertPlan replays n insert+query ops through the incremental
// union-find now, so a timed loop only compares.
func newInsertPlan(g *graph.Graph, r *splitmix, n, insertEdges, lookups int) *insertPlan {
	uf := oracleCC(g.N, g.U, g.V)
	p := &insertPlan{uf0: oracleCC(g.N, g.U, g.V), ccSum: uf.comps}
	for _, l := range uf.labels() {
		p.ccSum += l
	}
	p.edges = make([][]client.Edge, n)
	p.comps = make([]int64, n)
	p.batches = make([][]client.Query, n)
	p.expect = make([][]int64, n)
	for b := 0; b < n; b++ {
		es := make([]client.Edge, insertEdges)
		for j := range es {
			u := r.intn(g.N)
			v := r.intn(g.N - 1)
			if v >= u {
				v++
			}
			es[j] = client.Edge{U: u, V: v}
			uf.union(int32(u), int32(v))
		}
		p.edges[b], p.comps[b] = es, uf.comps

		// Half the lookups name endpoints of edges just inserted, so the
		// answer is wrong unless the insert is visible; half are random.
		qs := make([]client.Query, lookups)
		ex := make([]int64, lookups)
		for j := range qs {
			u, v := r.intn(g.N), r.intn(g.N)
			if j%4 < 2 {
				e := es[r.intn(int64(len(es)))]
				u, v = e.U, e.V
			}
			if j%2 == 0 {
				qs[j] = client.Query{Op: client.SameComponent, U: u, V: v}
				if uf.label(u) == uf.label(v) {
					ex[j] = 1
				}
			} else {
				qs[j] = client.Query{Op: client.ComponentSize, U: u}
				ex[j] = uf.compSize(u)
			}
		}
		p.batches[b], p.expect[b] = qs, ex
	}
	return p
}

// checkRun holds the resident cc run against the pre-insert oracle.
func (p *insertPlan) checkRun(_ int, r *client.RunResp) error {
	if r.Components != p.uf0.comps || r.Sum != p.ccSum {
		return fmt.Errorf("components %d sum %d, oracle %d / %d", r.Components, r.Sum, p.uf0.comps, p.ccSum)
	}
	return nil
}

// check holds op b's insert report and lookup answers against the oracle.
func (p *insertPlan) check(b int, edges int, components int64, ans []int64) error {
	if edges != len(p.edges[b]) || components != p.comps[b] {
		return fmt.Errorf("insert: %d edges, %d components; oracle %d / %d", edges, components, len(p.edges[b]), p.comps[b])
	}
	if len(ans) != len(p.expect[b]) {
		return fmt.Errorf("%d answers to %d lookups", len(ans), len(p.expect[b]))
	}
	for j, want := range p.expect[b] {
		if ans[j] != want {
			q := p.batches[b][j]
			return fmt.Errorf("lookup %d (%s u=%d v=%d) = %d, oracle %d", j, q.Op, q.U, q.V, ans[j], want)
		}
	}
	return nil
}

// serveInsert alternates client.Insert of an edge batch with a
// client.Query that must reflect it, on a sparse many-component input.
type serveInsert struct {
	seed uint64
	sh   shape
	dir  string

	load client.LoadReq
	plan *insertPlan

	srv    *served
	setup1 float64
}

func newServeInsert(seed uint64, sh shape, dir string) *serveInsert {
	return &serveInsert{seed: seed, sh: sh, dir: dir}
}

func (w *serveInsert) prepare() error {
	load, g, err := pickInput(ccLoad, w.sh, w.seed)
	if err != nil {
		return err
	}
	w.load = load
	// +1: op 0 of the plan is the warm-up.
	w.plan = newInsertPlan(g, newRand(w.seed).split(0x1257), w.sh.ops+1, w.sh.insertEdges, w.sh.lookups)
	return nil
}

func (w *serveInsert) setup(rec *recorder) error {
	srv, err := startServer(w.dir)
	if err != nil {
		return err
	}
	w.srv = srv
	specs := []client.KernelSpec{{Kernel: "cc/coalesced", Compact: true}}
	w.setup1, err = srv.loadAndRun(rec, w.load, specs, w.plan.checkRun)
	if err != nil {
		return err
	}
	if _, err := w.op(noOp, rec, openSpan{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *serveInsert) teardown() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.stop()
	w.srv = nil
	return err
}

func (w *serveInsert) beforeSlice(int) error { return nil }

func (w *serveInsert) op(i int, rec *recorder, parent openSpan) (time.Duration, error) {
	b := i + 1 // plan op 0 is the warm-up
	sp := rec.begin("op", i, parent)
	isp := rec.begin("client.Insert", i, sp)
	ir, err := w.srv.c.Insert(w.plan.edges[b])
	rec.end(isp)
	var ans []int64
	if err == nil {
		qsp := rec.begin("client.Query after insert", i, sp)
		ans, err = w.srv.c.Query(w.plan.batches[b])
		rec.end(qsp)
	}
	d := rec.end(sp)
	if err != nil {
		return 0, err
	}
	return d, w.plan.check(b, ir.Edges, ir.Components, ans)
}

func (w *serveInsert) simMS() float64 { return w.setup1 }
