package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"pgasgraph/client"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/serve"
)

// ccOracle is what every cc/* answer is held against.
type ccOracle struct {
	labels   []int64
	labelSum int64
	comps    int64
}

func newCCOracle(g *graph.Graph) *ccOracle { return ccOracleFrom(oracleCC(g.N, g.U, g.V)) }

func ccOracleFrom(f *unionFind) *ccOracle {
	o := &ccOracle{labels: f.labels(), comps: f.comps}
	for _, l := range o.labels {
		o.labelSum += l
	}
	return o
}

// check compares a kernel result label for label.
func (o *ccOracle) check(r *serve.KernelResult) error {
	if r.Components != o.comps {
		return fmt.Errorf("components %d, oracle %d", r.Components, o.comps)
	}
	if len(r.Labels) != len(o.labels) {
		return fmt.Errorf("%d labels, oracle %d", len(r.Labels), len(o.labels))
	}
	for i, l := range r.Labels {
		if l != o.labels[i] {
			return fmt.Errorf("label[%d] = %d, oracle %d", i, l, o.labels[i])
		}
	}
	return nil
}

// checkWire holds a wire op's per-node results: node 0's replica label
// for label, every node's label sum, and the simulated clock, which must
// agree on every node to the nanosecond.
func (o *ccOracle) checkWire(results []*serve.KernelResult) error {
	if err := o.check(results[0]); err != nil {
		return fmt.Errorf("node 0: %w", err)
	}
	for nd, r := range results {
		var s int64
		for _, l := range r.Labels {
			s += l
		}
		if s != o.labelSum {
			return fmt.Errorf("node %d: label sum %d, oracle %d", nd, s, o.labelSum)
		}
		if r.Run.SimNS != results[0].Run.SimNS {
			return fmt.Errorf("node %d: SimNS %v, node 0 %v", nd, r.Run.SimNS, results[0].Run.SimNS)
		}
	}
	return nil
}

func ccSpec(g *graph.Graph) serve.KernelSpec {
	return serve.KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: colOptions(), Compact: true}
}

// ccInput is the cc-* workloads' prepared input: the paper's headline
// class, a uniform random graph (m = 4n at the default shape), as a
// generator request plus the oracle for the graph it builds.
type ccInput struct {
	load   client.LoadReq
	oracle *ccOracle
}

func (in *ccInput) prepare(sh shape, seed uint64) error {
	load, g, err := pickInput(ccLoad, sh, seed)
	if err != nil {
		return err
	}
	in.load, in.oracle = load, newCCOracle(g)
	return nil
}

// generate is the timed, program-side generation: graph.Random through
// the program's one generator entry.
func (in *ccInput) generate() (*graph.Graph, error) { return serve.Generate(&in.load) }

// --- cc-inproc -----------------------------------------------------------

// ccInproc repeats serve.RunKernel("cc/coalesced") on one in-process
// runtime.
type ccInproc struct {
	seed uint64
	sh   shape
	ccInput

	g     *graph.Graph
	rt    *pgas.Runtime
	comm  *collective.Comm
	simNS float64
	runs  int
}

func newCCInproc(seed uint64, sh shape) *ccInproc { return &ccInproc{seed: seed, sh: sh} }

func (w *ccInproc) prepare() error { return w.ccInput.prepare(w.sh, w.seed) }

func (w *ccInproc) setup(rec *recorder) error {
	g, err := w.generate()
	if err != nil {
		return err
	}
	w.g = g
	rt, err := pgas.New(machineConfig())
	if err != nil {
		return err
	}
	w.rt, w.comm = rt, collective.NewComm(rt)
	w.simNS, w.runs = 0, 0
	if _, err := w.op(noOp, rec, openSpan{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.simNS, w.runs = 0, 0
	return nil
}

func (w *ccInproc) teardown() error {
	w.g, w.rt, w.comm = nil, nil, nil
	return nil
}

func (w *ccInproc) beforeSlice(int) error { return nil }

func (w *ccInproc) op(i int, rec *recorder, parent openSpan) (time.Duration, error) {
	sp := rec.begin("op", i, parent)
	r, err := serve.RunKernel(w.rt, w.comm, ccSpec(w.g))
	d := rec.end(sp)
	if err != nil {
		return 0, err
	}
	if err := w.oracle.check(r); err != nil {
		return 0, err
	}
	w.simNS += r.Run.SimNS
	w.runs++
	return d, nil
}

func (w *ccInproc) simMS() float64 { return meanSimMS(w.simNS, w.runs) }

func meanSimMS(simNS float64, runs int) float64 {
	if runs == 0 {
		return 0
	}
	return simNS / float64(runs) / 1e6
}

// --- cc-wire -------------------------------------------------------------

// wireTimeout bounds every blocking wire operation; it only fires when a
// hosted node is wedged.
const wireTimeout = 60 * time.Second

// wireNode is one hosted node of a cluster: its own transport endpoint,
// runtime and collective state, driven by its own goroutine.
type wireNode struct {
	tr   *wiretransport.Transport
	rt   *pgas.Runtime
	comm *collective.Comm
}

// wireCluster hosts a full unix-socket mesh inside this process, one
// goroutine per node (as verify.RunWireCluster does), kept alive across
// ops so the mesh connect stays outside the timed op.
type wireCluster struct {
	dir   string
	nodes []*wireNode
}

// connectWire assembles a fresh mesh under a new directory in dir.
func connectWire(dir string) (*wireCluster, error) {
	sub, err := os.MkdirTemp(dir, "wire-")
	if err != nil {
		return nil, err
	}
	c := &wireCluster{dir: sub, nodes: make([]*wireNode, nodes)}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for nd := 0; nd < nodes; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes: nodes, Node: nd, ThreadsPerNode: threadsPerNode, Dir: sub, Timeout: wireTimeout,
			})
			if err != nil {
				errs[nd] = err
				return
			}
			rt, err := pgas.NewOnTransport(machineConfig(), tr)
			if err != nil {
				_ = tr.Close()
				errs[nd] = err
				return
			}
			c.nodes[nd] = &wireNode{tr: tr, rt: rt, comm: collective.NewComm(rt)}
		}(nd)
	}
	wg.Wait()
	for nd, err := range errs {
		if err != nil {
			_ = c.close()
			return nil, fmt.Errorf("wire node %d: %w", nd, err)
		}
	}
	return c, nil
}

// each runs fn as every node concurrently and waits for all of them.
func (c *wireCluster) each(fn func(nd int, n *wireNode) error) []error {
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for nd, n := range c.nodes {
		wg.Add(1)
		go func(nd int, n *wireNode) {
			defer wg.Done()
			errs[nd] = fn(nd, n)
		}(nd, n)
	}
	wg.Wait()
	return errs
}

// close says goodbye on every endpoint (concurrently: the protocol waits
// for peers) and removes the socket directory.
func (c *wireCluster) close() error {
	var first error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(n *wireNode) {
			defer wg.Done()
			if err := n.tr.Close(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	if err := os.RemoveAll(c.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// runKernel runs spec on every node and returns the per-node results and
// the time from release to the last node finishing.
func (c *wireCluster) runKernel(spec serve.KernelSpec, i int, rec *recorder, parent openSpan) ([]*serve.KernelResult, time.Duration, error) {
	results := make([]*serve.KernelResult, len(c.nodes))
	sp := rec.begin("op", i, parent)
	errs := c.each(func(nd int, n *wireNode) error {
		nsp := rec.begin("wire.node", i, sp)
		r, err := serve.RunKernel(n.rt, n.comm, spec)
		rec.end(nsp)
		results[nd] = r
		return err
	})
	d := rec.end(sp)
	for nd, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("node %d: %w", nd, err)
		}
	}
	return results, d, nil
}

// ccWire runs the same kernel, graph and options as ccInproc over the
// socket transport, a fresh cluster every sh.perCluster ops.
type ccWire struct {
	seed uint64
	sh   shape
	dir  string
	ccInput

	g       *graph.Graph
	cluster *wireCluster
	simNS   float64
	runs    int
}

func newCCWire(seed uint64, sh shape, dir string) *ccWire {
	return &ccWire{seed: seed, sh: sh, dir: dir}
}

func (w *ccWire) prepare() error { return w.ccInput.prepare(w.sh, w.seed) }

func (w *ccWire) setup(rec *recorder) error {
	g, err := w.generate()
	if err != nil {
		return err
	}
	w.g = g
	w.simNS, w.runs = 0, 0
	return w.freshCluster(rec)
}

// freshCluster replaces the current cluster and runs its warm-up op.
func (w *ccWire) freshCluster(rec *recorder) error {
	if w.cluster != nil {
		if err := w.cluster.close(); err != nil {
			return err
		}
		w.cluster = nil
	}
	sp := rec.begin("wiretransport.connect", noOp, openSpan{})
	c, err := connectWire(w.dir)
	rec.end(sp)
	if err != nil {
		return err
	}
	w.cluster = c
	simNS, runs := w.simNS, w.runs
	if _, err := w.op(noOp, rec, openSpan{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.simNS, w.runs = simNS, runs
	return nil
}

func (w *ccWire) teardown() error {
	var err error
	if w.cluster != nil {
		err = w.cluster.close()
		w.cluster = nil
	}
	w.g = nil
	return err
}

func (w *ccWire) beforeSlice(first int) error {
	if first > 0 && first%w.sh.perCluster == 0 {
		return w.freshCluster(nil)
	}
	return nil
}

func (w *ccWire) op(i int, rec *recorder, parent openSpan) (time.Duration, error) {
	results, d, err := w.cluster.runKernel(ccSpec(w.g), i, rec, parent)
	if err != nil {
		return 0, err
	}
	if err := w.oracle.checkWire(results); err != nil {
		return 0, err
	}
	w.simNS += results[0].Run.SimNS
	w.runs++
	return d, nil
}

func (w *ccWire) simMS() float64 { return meanSimMS(w.simNS, w.runs) }
