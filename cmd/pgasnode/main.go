// Command pgasnode is one node of a multi-process PGAS cluster: it joins
// the socket mesh (unix by default, tcp with -net tcp) and runs one of two
// jobs as its seat of the SPMD program:
//
//	-job battery   the wire battery — the transport-conformance subset of
//	               the verification harness (the default)
//	-job cc        a supervised connected-components soak: every round runs
//	               the CC kernel under the recovery supervisor, so a
//	               peer-process death mid-kernel is detected, agreed on, and
//	               recovered from on the surviving geometry
//
// Every process samples the same trials from the same seed, so the cluster
// executes one program in lockstep with real inter-process data movement.
//
// Usage:
//
//	pgasnode -launch -nodes 2 -tpn 2 -checks bfs/coalesced,cc/coalesced
//	    spawn a whole cluster of this binary and wait for it
//
//	pgasnode -launch -nodes 3 -job cc -kill 1 -kill-after 500ms
//	    spawn a 3-node CC soak, SIGKILL node 1 mid-run, and require the
//	    survivors to complete on the shrunk geometry
//
//	pgasnode -node 0 -nodes 2 -dir /tmp/mesh ...
//	    run one seat (what -launch execs p times)
//
// Exit codes are distinct per teardown class, so a harness (or the
// launcher's verdict) can tell a clean goodbye from a peer-crash eviction
// from a local abort:
//
//	0  clean completion (goodbye teardown)
//	1  local failure or abort (wrong answer, unclassified panic, wire abort)
//	2  usage / spawn error
//	3  completed, but only after evicting a dead peer (degraded-but-correct)
//	4  this node was evicted from the cluster (cooperative self-eviction)
//
// The cc job prints one "cc digest=0x..." line per surviving node — an
// FNV-1a fold over every round's final labels. Labels are canonical
// component minima, so the digest is geometry-independent: a 3-node run
// that loses a node mid-kernel must print the same digest as a clean
// 2-node run of the same seed.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"pgasgraph/internal/cliflag"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/verify"
	"pgasgraph/internal/xrand"
)

// options carries every flag shared between the launcher and its workers.
type options struct {
	nodes, tpn int
	node       int
	job        string
	network    string
	dir        string
	addrs      string
	seed       uint64
	rounds     int
	maxN       int64
	checks     string
	killRate   float64
	timeout    time.Duration
}

func main() {
	var o options
	launch := flag.Bool("launch", false, "spawn the whole cluster (execs this binary once per node) and wait")
	nodes, tpn := cliflag.Geometry(nil, 2, 2)
	job := cliflag.Choice(nil, "job", "workload: battery (wire conformance checks) or cc (supervised CC soak)", "battery", "cc")
	network := cliflag.Network(nil)
	flag.IntVar(&o.node, "node", -1, "this process's seat in [0,p) (worker mode)")
	flag.StringVar(&o.dir, "dir", "", "shared rendezvous directory holding the node sockets (unix mesh, worker mode)")
	flag.StringVar(&o.addrs, "addrs", "", "comma-separated host:port per node (tcp mesh; launcher fills this in)")
	flag.Uint64Var(&o.seed, "seed", 1, "trial seed; every node must use the same value")
	flag.IntVar(&o.rounds, "rounds", 2, "sampled trials to run")
	flag.Int64Var(&o.maxN, "maxn", 200, "max input size (vertices / list nodes)")
	flag.StringVar(&o.checks, "checks", "", "comma-separated wire battery subset (default: all; see verifyrun -list)")
	flag.Float64Var(&o.killRate, "killrate", 0, "cc job: chaos kill rate per superstep (cooperative eviction drill)")
	flag.DurationVar(&o.timeout, "timeout", 20*time.Second, "per-operation wire deadline")
	kill := flag.Int("kill", -1, "launcher: SIGKILL this seat mid-run (requires -job cc)")
	killAfter := flag.Duration("kill-after", 500*time.Millisecond, "launcher: how long after spawn to deliver -kill")
	flag.Parse()
	o.nodes, o.tpn, o.job, o.network = *nodes, *tpn, *job, *network

	if err := o.usage(*launch, *kill); err != nil {
		fmt.Fprintf(os.Stderr, "pgasnode: %v\n", err)
		os.Exit(2)
	}
	if *launch {
		os.Exit(runLauncher(o, *kill, *killAfter))
	}
	os.Exit(runWorker(o))
}

// usage refuses flag combinations that cannot run: a -kill the job cannot
// survive or that names no seat, a worker without its mesh, and a -checks
// name that is not a wire battery row (it would run nothing).
func (o options) usage(launch bool, kill int) error {
	switch {
	case launch && kill >= 0 && o.job != "cc":
		return fmt.Errorf("-kill needs -job cc (the battery is not supervised)")
	case launch && kill >= o.nodes:
		return fmt.Errorf("-kill %d out of range for %d nodes", kill, o.nodes)
	case !launch && (o.node < 0 || (o.network == "unix" && o.dir == "") || (o.network == "tcp" && o.addrs == "")):
		return fmt.Errorf("worker mode needs -node and -dir (unix) or -addrs (tcp); or use -launch")
	}
	_, err := verify.Named(o.checks, true)
	return err
}

// reservePorts grabs n free loopback ports by listening and immediately
// closing; the workers re-listen on them. A raced port shows up as a
// connect failure, not a wrong answer.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs, nil
}

// runLauncher execs this binary once per seat over a fresh mesh and waits.
// Without -kill the cluster's verdict is the worst per-node exit code. With
// -kill the verdict inverts: the killed seat must die by signal and every
// survivor must exit 3 — completed, after evicting the dead peer.
func runLauncher(o options, kill int, killAfter time.Duration) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgasnode: resolve executable: %v\n", err)
		return 2
	}
	var addrs []string
	if o.network == "tcp" {
		if addrs, err = reservePorts(o.nodes); err != nil {
			fmt.Fprintf(os.Stderr, "pgasnode: reserve ports: %v\n", err)
			return 2
		}
	} else {
		dir, err := os.MkdirTemp("", "pgasnode")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgasnode: mesh dir: %v\n", err)
			return 2
		}
		defer os.RemoveAll(dir)
		o.dir = dir
	}

	cmds := make([]*exec.Cmd, o.nodes)
	for nd := 0; nd < o.nodes; nd++ {
		args := []string{
			"-node", strconv.Itoa(nd),
			"-nodes", strconv.Itoa(o.nodes),
			"-tpn", strconv.Itoa(o.tpn),
			"-job", o.job,
			"-net", o.network,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-rounds", strconv.Itoa(o.rounds),
			"-maxn", strconv.FormatInt(o.maxN, 10),
			"-checks", o.checks,
			"-killrate", strconv.FormatFloat(o.killRate, 'g', -1, 64),
			"-timeout", o.timeout.String(),
		}
		if o.network == "tcp" {
			args = append(args, "-addrs", strings.Join(addrs, ","))
		} else {
			args = append(args, "-dir", o.dir)
		}
		cmds[nd] = exec.Command(self, args...)
		cmds[nd].Stdout = os.Stdout
		cmds[nd].Stderr = os.Stderr
		if err := cmds[nd].Start(); err != nil {
			fmt.Fprintf(os.Stderr, "pgasnode: start node %d: %v\n", nd, err)
			return 2
		}
	}
	if kill >= 0 {
		go func(p *os.Process) {
			time.Sleep(killAfter)
			p.Kill()
		}(cmds[kill].Process)
	}

	codes := make([]int, o.nodes)
	for nd, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			codes[nd] = cmd.ProcessState.ExitCode() // -1 on signal death
			if nd != kill {
				fmt.Fprintf(os.Stderr, "pgasnode: node %d: %v\n", nd, err)
			}
		}
	}
	if kill >= 0 {
		return killVerdict(o, codes, kill)
	}
	code := 0
	for _, c := range codes {
		if c != 0 && (code == 0 || c > code) {
			code = c
		}
		if c < 0 {
			code = 1
		}
	}
	if code == 0 {
		fmt.Printf("pgasnode: %d-node cluster passed (%s, %d rounds, tpn=%d)\n",
			o.nodes, o.job, o.rounds, o.tpn)
	}
	return code
}

// killVerdict decides a -kill run: the victim must have died by signal
// (exit code -1) and every survivor must have completed after evicting it
// (exit code 3). Anything else — the kill landing after the run finished,
// a survivor aborting instead of recovering — fails the launch.
func killVerdict(o options, codes []int, kill int) int {
	ok := true
	if codes[kill] != -1 {
		fmt.Fprintf(os.Stderr, "pgasnode: kill landed too late: node %d exited %d before the signal\n",
			kill, codes[kill])
		ok = false
	}
	for nd, c := range codes {
		if nd == kill {
			continue
		}
		if c != 3 {
			fmt.Fprintf(os.Stderr, "pgasnode: survivor node %d exited %d, want 3 (recovered-after-eviction)\n",
				nd, c)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Printf("pgasnode: killed node %d mid-run; %d survivors recovered and completed\n",
		kill, o.nodes-1)
	return 0
}

// connect joins the mesh as one seat under the worker's flags.
func connect(o options) (*wiretransport.Transport, error) {
	cfg := wiretransport.Config{
		Nodes: o.nodes, Node: o.node, ThreadsPerNode: o.tpn,
		Network: o.network, Dir: o.dir, Timeout: o.timeout,
	}
	if o.addrs != "" {
		cfg.Addrs = strings.Split(o.addrs, ",")
	}
	return wiretransport.Connect(cfg)
}

// runWorker is one seat: join the mesh, then run the selected job in the
// same deterministic order as every other seat.
func runWorker(o options) int {
	tr, err := connect(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgasnode %d: connect: %v\n", o.node, err)
		return 1
	}
	defer tr.Close()
	if o.job == "cc" {
		return runCCJob(o, tr)
	}
	return runBattery(o, tr)
}

// runBattery runs the Seat row: every sampled trial's applicable wire
// checks, each on a fresh runtime over the shared transport — window names
// and rendezvous generations stay aligned because every allocation is
// replayed identically on every node. The battery is unsupervised, so a
// peer crash mid-check cannot be recovered from — but it is still
// classified: the worker exits 3 (peer evicted) or 4 (self evicted) instead
// of poisoning the mesh with an abort the way a genuine local failure does.
func runBattery(o options, tr *wiretransport.Transport) int {
	names, _ := verify.Named(o.checks, true) // refused at startup
	seat := verify.Seat
	seat.Trials, seat.Geometries, seat.Env.Seat = o.rounds, [][2]int{{o.nodes, o.tpn}}, tr
	cfg := verify.Config{Seed: o.seed, MaxN: o.maxN, Checks: names}
	if o.node == 0 {
		cfg.Log = os.Stdout
	}
	rep := seat.Run(cfg)
	if rep.OK() {
		fmt.Printf("pgasnode %d: battery passed (%d rounds, %d checks); wire: %v\n", o.node, o.rounds, rep.Checks, tr.Stats())
		return 0
	}
	if rep.Checks == 0 {
		fmt.Fprintf(os.Stderr, "pgasnode %d: the battery ran no checks\n", o.node)
		return 1
	}
	rec := rep.Records[len(rep.Records)-1]
	if tr.SelfEvicted() {
		fmt.Fprintf(os.Stderr, "pgasnode %d: evicted from the cluster during %s\n", o.node, rec.Check)
		return 4
	}
	if dead := pgas.Evicted(rec.Err); dead != nil {
		fmt.Fprintf(os.Stderr, "pgasnode %d: peer evicted during %s (threads %v); battery cannot continue\n",
			o.node, rec.Check, dead)
		return 3
	}
	fmt.Fprintf(os.Stderr, "pgasnode %d: FAIL round %d %s [%s]: %v\n",
		o.node, rec.Round, rec.Check, errClass(rec.Err), rec.Err)
	tr.Abort(fmt.Sprintf("node %d: %s failed: %v", o.node, rec.Check, rec.Err))
	return 1
}

// errClass names err's pgas error class for a failure line.
func errClass(err error) string {
	if ce, ok := pgas.Classified(err); ok {
		return ce.Class.Error()
	}
	return "UNCLASSIFIED"
}

// runCCJob is the supervised soak: every round builds a fresh hybrid graph
// from the shared seed and runs the CC kernel under the recovery
// supervisor on whatever geometry currently survives. A peer death mid-round
// rolls the round back onto the shrunk cluster and re-executes; the next
// round starts directly on the survivors. The digest folds every round's
// final labels — canonical component minima, so it is identical across
// geometries and across kill timings.
func runCCJob(o options, tr *wiretransport.Transport) int {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	evictedEver := false
	for round := 0; round < o.rounds; round++ {
		rng := xrand.New(o.seed).Split(0xcc0de ^ uint64(round))
		n := 32 + int64(rng.Uint64()%uint64(o.maxN))
		g := graph.Hybrid(n, 2*n, rng.Uint64())

		cfg := machine.PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode = tr.Nodes(), o.tpn
		rt, err := pgas.NewOnTransport(cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgasnode %d: cc round %d: %v\n", o.node, round, err)
			return 1
		}
		if o.killRate > 0 {
			rt.ArmChaos(pgas.ChaosConfig{Seed: o.seed + uint64(round), KillRate: o.killRate})
		}
		var res *serve.KernelResult
		rep, err := recovery.Run(rt, &recovery.Config{MinThreads: 1}, func(rt *pgas.Runtime, comm *collective.Comm) (err error) {
			// A classified failure comes back as the error; the supervisor
			// turns it into the rollback or the failure below.
			res, err = serve.RunKernel(rt, comm, serve.KernelSpec{Kernel: "cc/coalesced", Graph: g})
			return err
		})
		if err != nil {
			if tr.SelfEvicted() {
				fmt.Fprintf(os.Stderr, "pgasnode %d: evicted from the cluster (cc round %d)\n", o.node, round)
				return 4
			}
			fmt.Fprintf(os.Stderr, "pgasnode %d: cc round %d failed [%s]: %v\n", o.node, round, errClass(err), err)
			return 1
		}
		if len(rep.Evicted) > 0 {
			evictedEver = true
			fmt.Fprintf(os.Stderr, "pgasnode %d: cc round %d recovered: rollbacks=%d evicted=%v survivors=%d\n",
				o.node, round, rep.Rollbacks, rep.Evicted, tr.Nodes())
		}
		mix(uint64(round))
		for _, l := range res.Labels {
			mix(uint64(l))
		}
	}
	fmt.Printf("pgasnode %d: cc digest=%#x (%d rounds); wire: %v\n", o.node, h, o.rounds, tr.Stats())
	if evictedEver {
		return 3
	}
	return 0
}
