package main

import (
	"fmt"
	"os"
	"time"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/report"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/verify"
	"pgasgraph/internal/xrand"
)

// wireKernel is one comparison row family: the registry spec to dispatch
// plus how per-node identity sums fold (synchronized replicas must match;
// a partitioned MST forest adds).
type wireKernel struct {
	name string
	spec func(t *verify.Trial) serve.KernelSpec
	sum  func(r *serve.KernelResult) int64
	fold bool
}

// wireKernels rotates the coalesced kernels through the shared
// serve.RunKernel registry — the same dispatch pgasd and Cluster.Run use —
// instead of a private closure table.
var wireKernels = []wireKernel{
	{
		name: "bfs/coalesced",
		spec: func(t *verify.Trial) serve.KernelSpec {
			return serve.KernelSpec{Kernel: "bfs/coalesced", Graph: t.Graph, Col: &t.Opts, Src: t.Src}
		},
		sum: func(r *serve.KernelResult) int64 { return sum64(r.Dist) },
	},
	{
		name: "cc/coalesced",
		spec: func(t *verify.Trial) serve.KernelSpec {
			return serve.KernelSpec{Kernel: "cc/coalesced", Graph: t.Graph, Col: &t.Opts, Compact: t.Compact}
		},
		sum: func(r *serve.KernelResult) int64 { return sum64(r.Labels) },
	},
	{
		name: "mst/coalesced",
		spec: func(t *verify.Trial) serve.KernelSpec {
			return serve.KernelSpec{Kernel: "mst/coalesced", Graph: t.WGraph, Col: &t.Opts, Compact: t.Compact}
		},
		sum:  func(r *serve.KernelResult) int64 { return int64(r.Weight) },
		fold: true,
	},
}

// runWireTable is `pgasbench -transport wire`: the coalesced BFS/CC/MST
// kernels on sampled graphs, once on the shared in-process fabric and once
// on a real unix-socket cluster hosted in this process. Simulated time must
// be bit-identical — the cost model charges below the transport seam — so
// the table's interesting columns are the wall-clock ratio (real framing,
// CRC, syscalls) and the answer-identity verdict.
func runWireTable(seed uint64, nodes, rounds int, emit func(*report.Table) error) int {
	if nodes < 2 {
		nodes = 2
	}
	if nodes > 4 {
		nodes = 4 // the conformance geometries top out at 4 seats
	}
	const tpn = 2

	tb := report.NewTable(
		fmt.Sprintf("Transport comparison: in-process vs %d-node unix-socket wire (tpn=%d)", nodes, tpn),
		"round", "kernel", "n", "m", "sim_ms", "wall_inproc", "wall_wire", "bytes", "narrow%", "identical")
	tb.AddNote("sim time is charged below the transport seam and must match exactly;")
	tb.AddNote("wire wall-clock includes mesh connect and per-region replica sync.")
	tb.AddNote("identity: BFS distance sum / CC label sum per node, MST weight summed over nodes.")
	tb.AddNote("bytes: what the nodes put on their sockets, headers included; narrow%%: payload frames sent as 4-byte words.")

	failures := 0
	for round := 0; round < rounds; round++ {
		rng := xrand.New(seed).Split(0xbe7c ^ uint64(round))
		t := verify.SampleTrial(rng, round, 1200).WithMachine(nodes, tpn)
		for _, k := range wireKernels {
			rt, err := pgas.New(t.Machine)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pgasbench: %v\n", err)
				return 1
			}
			inStart := time.Now()
			want, err := serve.RunKernel(rt, collective.NewComm(rt), k.spec(t))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pgasbench: %s round %d: %v\n", k.name, round, err)
				return 1
			}
			wantSum := k.sum(want)
			inWall := time.Since(inStart)

			// The wire cluster: every node computes, node sums fold the
			// distributed MST result; any divergence fails the row.
			sums := make([]int64, nodes)
			stats := make([]wiretransport.Stats, nodes)
			var simDiverged bool
			wireStart := time.Now()
			errs := verify.RunWireCluster(t, nil, verify.WireTimeout,
				func(node int, rt *pgas.Runtime, comm *collective.Comm) error {
					r, err := serve.RunKernel(rt, comm, k.spec(t))
					if err != nil {
						return err
					}
					sums[node] = k.sum(r)
					stats[node] = rt.Transport().(*wiretransport.Transport).Stats()
					if r.Run.SimNS != want.Run.SimNS {
						simDiverged = true
					}
					return nil
				})
			wireWall := time.Since(wireStart)

			identical := !simDiverged && verifyWireSums(k.fold, sums, wantSum)
			if err := firstErr(errs); err != nil {
				identical = false
				fmt.Fprintf(os.Stderr, "pgasbench: wire %s round %d: %v\n", k.name, round, err)
			}
			if !identical {
				failures++
			}
			var wireBytes, payloads, narrow uint64
			for _, st := range stats {
				_, b := st.SentWire()
				wireBytes += b
				payloads += st.PayloadFrames
				narrow += st.NarrowFrames
			}
			narrowPct := 0.0
			if payloads > 0 {
				narrowPct = 100 * float64(narrow) / float64(payloads)
			}
			g := k.spec(t).Graph
			tb.AddRow(
				fmt.Sprintf("%d", round),
				k.name,
				fmt.Sprintf("%d", g.N),
				fmt.Sprintf("%d", len(g.U)),
				fmt.Sprintf("%.3f", float64(want.Run.SimNS)/1e6),
				inWall.Round(10*time.Microsecond).String(),
				wireWall.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%d", wireBytes),
				fmt.Sprintf("%.0f", narrowPct),
				fmt.Sprintf("%v", identical),
			)
		}
	}
	if err := emit(tb); err != nil {
		fmt.Fprintf(os.Stderr, "pgasbench: writing wire table: %v\n", err)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "pgasbench: %d wire rows diverged from in-process\n", failures)
		return 1
	}
	return 0
}

// verifyWireSums folds per-node identity sums into the comparison each
// kernel calls for: BFS and CC produce the full answer on every node (the
// replicas are synchronized), while a partitioned result's sums add.
func verifyWireSums(fold bool, sums []int64, want int64) bool {
	if fold {
		var total int64
		for _, s := range sums {
			total += s
		}
		return total == want
	}
	for _, s := range sums {
		if s != want {
			return false
		}
	}
	return true
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
