package verify

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	recovery "pgasgraph/internal/recover"
)

// wireTimeout is the per-operation wire deadline of hosted conformance
// clusters: short enough that a wedged trial fails the soak's watchdog
// budget, long enough for the slowest sampled trial.
const wireTimeout = 20 * time.Second

// Env is where, and under what, runCheck runs a check. The zero Env is the
// clean in-process run; every field is independent of the others.
type Env struct {
	// Fault is the collective-layer mutation injected into the check's Comm.
	Fault collective.Fault
	// Chaos, when non-nil, arms the chaos layer on every runtime of the run
	// under this one schedule: faults are injected into every remote bulk
	// transfer and collective serve phase the check performs.
	Chaos *pgas.ChaosConfig
	// Recover, when non-nil, runs the check body under the eviction-recovery
	// supervisor with this configuration: a chaos kill (or a dead peer)
	// remaps the dead threads' blocks onto the survivors, rolls registered
	// kernel state back to the last committed superstep checkpoint and
	// re-executes the body on the degraded geometry.
	Recover *recovery.Config
	// Wire hosts the trial's machine as a fresh wire cluster, one goroutine
	// per node, each with its own transport endpoint, runtime and collective
	// state. The check's host-side comparisons then run on every node
	// against that node's replica, so a divergent replica fails exactly like
	// a wrong answer. Wire transports are poisoned forever by one abort, so
	// every run gets a fresh cluster, torn down afterwards.
	Wire bool
	// Seat, when non-nil, is this process's already-connected endpoint of a
	// multi-process cluster (cmd/pgasnode): the check runs as that one node.
	Seat pgas.Transport
}

// checkResult is what one runCheck observed.
type checkResult struct {
	// Err is the verdict (nil = pass): the one node's error, or on a hosted
	// cluster the originating node's, tagged with its seat.
	Err error
	// Errs holds one slot per node that ran here: every node of a hosted
	// wire cluster, else one.
	Errs []error
	// Reports holds each of those nodes' recovery report. Unsupervised, or
	// when the supervisor never returned, a report carries only Chaos, the
	// node's fault counters.
	Reports []*recovery.Report
	// Stats sums the Reports' fault counters. Per-thread draw streams are
	// seeded identically on both backends, so a recovered trial's sum is the
	// same in-process and on the wire.
	Stats pgas.ChaosStats
}

// runCheck runs c on trial t in env — the one way to run a check. Kernel
// panics (iteration-bound blow-ups, index validation; the runtime propagates
// a panic on any simulated thread to the calling goroutine) come back as
// check failures with their error chain intact, so callers still classify
// them with errors.Is.
func runCheck(c Check, t *Trial, env Env) *checkResult {
	nodes := 1
	if env.Wire {
		nodes = t.Machine.Nodes
	}
	res := &checkResult{Errs: make([]error, nodes), Reports: make([]*recovery.Report, nodes)}
	for nd := range res.Reports {
		res.Reports[nd] = &recovery.Report{}
	}
	node := func(nd int, tr pgas.Transport) (err error) {
		defer recoverCheck(&err)
		rt, err := trialRuntime(t, tr)
		if err != nil {
			return err
		}
		if env.Chaos != nil {
			rt.ArmChaos(*env.Chaos)
		}
		body := func(rt *pgas.Runtime, comm *collective.Comm) error {
			comm.InjectFault(env.Fault)
			return c.run(t, rt, comm)
		}
		if env.Recover == nil {
			defer func() { res.Reports[nd].Chaos = rt.ChaosStats() }()
			return body(rt, collective.NewComm(rt))
		}
		res.Reports[nd], err = recovery.Run(rt, env.Recover, body)
		return err
	}
	if env.Wire {
		runWireCluster(t, res.Errs, node)
		res.Err = firstNodeError(res.Errs)
	} else {
		res.Errs[0] = node(0, env.Seat)
		res.Err = res.Errs[0]
	}
	for _, rep := range res.Reports {
		res.Stats.Add(rep.Chaos)
	}
	return res
}

// trialRuntime builds the fresh runtime one node of trial t runs on: over tr
// when the node is a wire endpoint, else the whole machine in process.
func trialRuntime(t *Trial, tr pgas.Transport) (rt *pgas.Runtime, err error) {
	if tr != nil {
		rt, err = pgas.NewOnTransport(t.Machine, tr)
	} else {
		rt, err = pgas.New(t.Machine)
	}
	if err != nil {
		return nil, fmt.Errorf("machine config: %v", err)
	}
	return rt, nil
}

// runWireCluster assembles a fresh wire cluster for t's geometry and runs
// node as every node, one goroutine each on its own connected endpoint,
// filling one error slot per node; the cluster is torn down afterwards.
func runWireCluster(t *Trial, errs []error, node func(nd int, tr pgas.Transport) error) {
	dir, err := os.MkdirTemp("", "pgaswire")
	if err != nil {
		for nd := range errs {
			errs[nd] = fmt.Errorf("wire cluster dir: %v", err)
		}
		return
	}
	defer os.RemoveAll(dir)

	var wg sync.WaitGroup
	for nd := range errs {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes:          len(errs),
				Node:           nd,
				ThreadsPerNode: t.Machine.ThreadsPerNode,
				Dir:            dir,
				Timeout:        wireTimeout,
			})
			if err != nil {
				errs[nd] = err
				return
			}
			defer tr.Close()
			errs[nd] = node(nd, tr)
		}(nd)
	}
	wg.Wait()
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

// firstNodeError picks the reported failure deterministically: the lowest
// node with a non-transport error (the node that originated the region
// failure), else the lowest node error of any class. Peer nodes of a failed
// region unwind with secondary ErrTransport aborts; reporting the
// originating class keeps wire outcomes comparable with in-process ones.
func firstNodeError(errs []error) error {
	for nd, err := range errs {
		if err != nil && !errors.Is(err, pgas.ErrTransport) {
			return fmt.Errorf("node %d: %w", nd, err)
		}
	}
	for nd, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", nd, err)
		}
	}
	return nil
}

// watched is runCheck under a watchdog: it reports a hang (and no result)
// when the run outlives d. A zero d runs unwatched.
func watched(d time.Duration, c Check, t *Trial, env Env) (res *checkResult, hung bool) {
	if d == 0 {
		return runCheck(c, t, env), false
	}
	done := make(chan *checkResult, 1)
	go func() { done <- runCheck(c, t, env) }()
	select {
	case res = <-done:
		return res, false
	case <-time.After(d):
		return nil, true
	}
}

// classifiedErr reports whether err is a loud, classified runtime failure —
// the acceptable way for a fault schedule that exceeds its budget to end.
func classifiedErr(err error) bool {
	return errors.Is(err, pgas.ErrTransport) || errors.Is(err, pgas.ErrTimeout) ||
		errors.Is(err, pgas.ErrCorrupt) || errors.Is(err, pgas.ErrEvicted)
}
