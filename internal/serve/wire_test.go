package serve

import (
	"bytes"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/pgas/wiretransport"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
)

// wireSeat is one hosted node of a unix-socket cluster.
type wireSeat struct {
	tr   *wiretransport.Transport
	rt   *pgas.Runtime
	comm *collective.Comm
}

// hostWire assembles a nodes×tpn wire cluster inside the test process, one
// transport endpoint, runtime and Comm per node.
func hostWire(t *testing.T, nodes, tpn int) []*wireSeat {
	t.Helper()
	dir := t.TempDir()
	seats := make([]*wireSeat, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for nd := range seats {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, err := wiretransport.Connect(wiretransport.Config{
				Nodes: nodes, Node: nd, ThreadsPerNode: tpn, Dir: dir, Timeout: 20 * time.Second,
			})
			if err != nil {
				errs[nd] = err
				return
			}
			rt, err := pgas.NewOnTransport(testMachine(nodes, tpn), tr)
			if err != nil {
				tr.Close()
				errs[nd] = err
				return
			}
			seats[nd] = &wireSeat{tr: tr, rt: rt, comm: collective.NewComm(rt)}
		}(nd)
	}
	wg.Wait()
	for nd, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", nd, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range seats {
			s.tr.Close()
		}
	})
	return seats
}

// onEvery runs fn as every node concurrently and returns the per-node
// errors.
func onEvery(seats []*wireSeat, fn func(nd int, s *wireSeat) error) []error {
	errs := make([]error, len(seats))
	var wg sync.WaitGroup
	for nd, s := range seats {
		wg.Add(1)
		go func(nd int, s *wireSeat) {
			defer wg.Done()
			errs[nd] = fn(nd, s)
		}(nd, s)
	}
	wg.Wait()
	return errs
}

// sentBytes is what the whole cluster has put on its sockets so far.
func sentBytes(seats []*wireSeat) (total uint64) {
	for _, s := range seats {
		_, b := s.tr.Stats().SentWire()
		total += b
	}
	return total
}

func exposedWindows(seats []*wireSeat) []int {
	ws := make([]int, len(seats))
	for nd, s := range seats {
		ws[nd] = s.tr.Stats().Windows
	}
	return ws
}

// TestWireClusterDoesNotGrow: a kernel's shared state lives until RunKernel
// returns. On a long-lived cluster an empty region after the sixth
// cc/coalesced run moves exactly the bytes it moved after the first — no
// dead array is synced — the same windows are exposed (the Comm's own
// one-shot plan, which every run reuses), and the first run's labels, host
// slices, are untouched by the releases that followed.
func TestWireClusterDoesNotGrow(t *testing.T) {
	const nodes = 4
	seats := hostWire(t, nodes, 2)
	g := graph.Random(1<<12, 1<<14, 41)
	want := seq.Canonical(seq.CC(g))
	spec := KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(2), Compact: true}

	run := func() []*KernelResult {
		t.Helper()
		results := make([]*KernelResult, nodes)
		for nd, err := range onEvery(seats, func(nd int, s *wireSeat) (err error) {
			results[nd], err = RunKernel(s.rt, s.comm, spec)
			return err
		}) {
			if err != nil {
				t.Fatalf("node %d: %v", nd, err)
			}
		}
		return results
	}
	emptyRegion := func() uint64 {
		t.Helper()
		before := sentBytes(seats)
		for nd, err := range onEvery(seats, func(_ int, s *wireSeat) error {
			_, err := s.rt.RunE(func(*pgas.Thread) {})
			return err
		}) {
			if err != nil {
				t.Fatalf("node %d: empty region: %v", nd, err)
			}
		}
		return sentBytes(seats) - before
	}

	first := run()
	bytes1, windows1 := emptyRegion(), exposedWindows(seats)
	for k := 0; k < 5; k++ {
		run()
	}
	bytes6, windows6 := emptyRegion(), exposedWindows(seats)

	if bytes1 != bytes6 {
		t.Errorf("an empty region moved %d bytes after 1 run and %d after 6", bytes1, bytes6)
	}
	for nd := range seats {
		if windows1[nd] != windows6[nd] {
			t.Errorf("node %d: %d windows exposed after 1 run, %d after 6", nd, windows1[nd], windows6[nd])
		}
	}
	for nd, r := range first {
		if len(r.Labels) != len(want) {
			t.Fatalf("node %d: %d labels, want %d", nd, len(r.Labels), len(want))
		}
		for i := range want {
			if r.Labels[i] != want[i] {
				t.Fatalf("node %d: run 1's label[%d] = %d after run 6, want %d", nd, i, r.Labels[i], want[i])
			}
		}
	}
}

// TestFailedKernelStillReleases: a kernel that dies mid-region — here on an
// exhausted retry budget, every transfer dropped — leaves through
// RunKernel's release like one that finished: no window of the failed run
// stays exposed on any node.
func TestFailedKernelStillReleases(t *testing.T) {
	seats := hostWire(t, 2, 2)
	spec := KernelSpec{Kernel: "cc/coalesced", Graph: graph.Random(512, 2048, 5), Col: collective.Optimized(2)}
	run := func() []error {
		return onEvery(seats, func(_ int, s *wireSeat) error {
			_, err := RunKernel(s.rt, s.comm, spec)
			return err
		})
	}
	// One clean run first: it exposes the Comm's own one-shot plan buffers,
	// which outlive every run (TestWireClusterDoesNotGrow) and which the
	// failing collective below — the first round's SetDMin — also uses.
	for nd, err := range run() {
		if err != nil {
			t.Fatalf("node %d: clean run: %v", nd, err)
		}
	}
	idle := exposedWindows(seats)
	for _, s := range seats {
		s.rt.ArmChaos(pgas.ChaosConfig{Seed: 9, DropRate: 1, MaxAttempts: 1})
	}
	for nd, err := range run() {
		if _, classified := pgas.Classified(err); !classified {
			t.Fatalf("node %d: RunKernel under total loss: %v, want a classified failure", nd, err)
		}
	}
	for nd, got := range exposedWindows(seats) {
		if got != idle[nd] {
			t.Errorf("node %d: %d windows exposed after the failed run, %d before it", nd, got, idle[nd])
		}
	}
}

// TestWireRoundCounts: a round count is the cluster's, not node 0's. On a
// hosted 2 × 2 cluster every node reports, for each wire-battery kernel,
// the Iterations of the same kernel run in process on the same geometry.
func TestWireRoundCounts(t *testing.T) {
	const nodes, tpn = 2, 2
	seats := hostWire(t, nodes, tpn)
	inproc, err := pgas.New(testMachine(nodes, tpn))
	if err != nil {
		t.Fatal(err)
	}
	inComm := collective.NewComm(inproc)
	g := graph.Random(1<<10, 1<<12, 29)
	for _, kernel := range []string{"cc/coalesced", "cc/sv", "cc/fastsv", "bfs/coalesced"} {
		spec := KernelSpec{Kernel: kernel, Graph: g, Col: collective.Optimized(2), Compact: true, Src: 3}
		want, err := RunKernel(inproc, inComm, spec)
		if err != nil {
			t.Fatalf("%s in process: %v", kernel, err)
		}
		if want.Iterations == 0 {
			t.Fatalf("%s in process: 0 iterations", kernel)
		}
		got := make([]int, nodes)
		for nd, err := range onEvery(seats, func(nd int, s *wireSeat) error {
			res, err := RunKernel(s.rt, s.comm, spec)
			if err == nil {
				got[nd] = res.Iterations
			}
			return err
		}) {
			if err != nil {
				t.Fatalf("%s on node %d: %v", kernel, nd, err)
			}
		}
		for nd, it := range got {
			if it != want.Iterations {
				t.Errorf("%s: node %d reports %d iterations, in process %d", kernel, nd, it, want.Iterations)
			}
		}
	}
}

// TestWireIncremental: an insert's read-out is every process's. On hosted
// 2 × 2 and 3 × 1 clusters every node runs cc.Incremental over its replica
// of the same resident labels, batch after batch, and reports the Labels,
// Components and Merged of the same update run in process.
func TestWireIncremental(t *testing.T) {
	g := graph.Random(1<<10, 1<<9, 31) // sparse: many components to merge
	for _, geo := range [][2]int{{2, 2}, {3, 1}} {
		nodes, tpn := geo[0], geo[1]
		seats := hostWire(t, nodes, tpn)
		inproc, err := pgas.New(testMachine(nodes, tpn))
		if err != nil {
			t.Fatal(err)
		}
		spec := KernelSpec{Kernel: "cc/coalesced", Graph: g, Col: collective.Optimized(2)}
		resident := func(rt *pgas.Runtime, comm *collective.Comm) (*pgas.SharedArray, error) {
			res, err := RunKernel(rt, comm, spec)
			if err != nil {
				return nil, err
			}
			d := rt.NewSharedArray("labels", g.N)
			copy(d.Raw(), res.Labels)
			return d, nil
		}
		inComm := collective.NewComm(inproc)
		inD, err := resident(inproc, inComm)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]*pgas.SharedArray, nodes)
		for nd, err := range onEvery(seats, func(nd int, s *wireSeat) (err error) {
			ds[nd], err = resident(s.rt, s.comm)
			return err
		}) {
			if err != nil {
				t.Fatalf("%dx%d node %d: %v", nodes, tpn, nd, err)
			}
		}

		rng := xrand.New(37)
		for batch := 0; batch < 3; batch++ {
			eu, ev := make([]int64, 64), make([]int64, 64)
			for i := range eu {
				eu[i], ev[i] = rng.Int64n(g.N), rng.Int64n(g.N)
			}
			opts := &cc.Options{Col: collective.Optimized(2)}
			want := cc.Incremental(inproc, inComm, inD, eu, ev, opts)
			if len(want.Merged) == 0 {
				t.Fatalf("%dx%d batch %d merged nothing", nodes, tpn, batch)
			}
			got := make([]*cc.Result, nodes)
			for nd, err := range onEvery(seats, func(nd int, s *wireSeat) (err error) {
				defer pgas.Recover(&err)
				got[nd] = cc.Incremental(s.rt, s.comm, ds[nd], eu, ev, opts)
				return nil
			}) {
				if err != nil {
					t.Fatalf("%dx%d batch %d node %d: %v", nodes, tpn, batch, nd, err)
				}
			}
			for nd, r := range got {
				switch {
				case !slices.Equal(r.Labels, want.Labels):
					t.Errorf("%dx%d batch %d: node %d's labels differ from the in-process run", nodes, tpn, batch, nd)
				case r.Components != want.Components:
					t.Errorf("%dx%d batch %d: node %d reports %d components, in process %d", nodes, tpn, batch, nd, r.Components, want.Components)
				case !slices.Equal(r.Merged, want.Merged):
					t.Errorf("%dx%d batch %d: node %d reports merges %v, in process %v", nodes, tpn, batch, nd, r.Merged, want.Merged)
				}
			}
		}
	}
}

// procWchar reads this process's cumulative write-syscall byte count.
func procWchar(t *testing.T) uint64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			v, err := strconv.ParseUint(string(rest), 10, 64)
			if err != nil {
				t.Fatalf("/proc/self/io: %v", err)
			}
			return v
		}
	}
	t.Skip("/proc/self/io has no wchar")
	return 0
}

// TestWireStatsAccountForSocketBytes: the transport's counters are the
// bytes on the wire. Over one cc/coalesced run on a hosted cluster, what
// the nodes sent is what they received, and payload bytes plus 40 per frame
// account for the process's write-syscall growth to within 1 %. Must not
// run in parallel with anything that writes.
func TestWireStatsAccountForSocketBytes(t *testing.T) {
	seats := hostWire(t, 4, 2)
	spec := KernelSpec{Kernel: "cc/coalesced", Graph: graph.Random(1<<14, 1<<16, 77), Col: collective.Optimized(2), Compact: true}

	sent0, wchar0 := sentBytes(seats), procWchar(t)
	for nd, err := range onEvery(seats, func(_ int, s *wireSeat) error {
		_, err := RunKernel(s.rt, s.comm, spec)
		return err
	}) {
		if err != nil {
			t.Fatalf("node %d: %v", nd, err)
		}
	}
	wchar, sent := procWchar(t)-wchar0, sentBytes(seats)-sent0

	var sentAll, recvAll uint64
	for _, s := range seats {
		st := s.tr.Stats()
		_, sb := st.SentWire()
		_, rb := st.RecvWire()
		sentAll, recvAll = sentAll+sb, recvAll+rb
	}
	if sentAll != recvAll {
		t.Errorf("cluster sent %d bytes and received %d", sentAll, recvAll)
	}
	if diff := float64(wchar) - float64(sent); diff < -0.01*float64(wchar) || diff > 0.01*float64(wchar) {
		t.Errorf("counters say %d bytes left over sockets; the process wrote %d (off by %.2f%%)",
			sent, wchar, 100*diff/float64(wchar))
	}
}

// TestWireBytesPerWord: a word costs its range. Over one cc/coalesced run
// on a hosted 4 × 2 cluster the payloads — index segments within one owner
// block of 2^12 words, label runs below 2^14, each behind its 8-byte base
// — average at most 1.75 bytes a word (protocol 3's whole-byte widths took
// 1.89, protocol 2 sent every one of them at 4), so a codec that stops
// narrowing to the bit fails here and not only in the benchmark.
func TestWireBytesPerWord(t *testing.T) {
	seats := hostWire(t, 4, 2)
	spec := KernelSpec{Kernel: "cc/coalesced", Graph: graph.Random(1<<14, 1<<16, 77), Col: collective.Optimized(2), Compact: true}
	for nd, err := range onEvery(seats, func(_ int, s *wireSeat) error {
		_, err := RunKernel(s.rt, s.comm, spec)
		return err
	}) {
		if err != nil {
			t.Fatalf("node %d: %v", nd, err)
		}
	}
	var pay, words uint64
	for _, s := range seats {
		st := s.tr.Stats()
		for _, r := range st.Sent {
			pay += r.Bytes
		}
		words += st.PayloadWords
	}
	if perWord := float64(pay) / float64(words); words == 0 || perWord > 1.75 {
		t.Errorf("%d payload bytes for %d words: %.2f bytes a word, want <= 1.75", pay, words, perWord)
	} else {
		t.Logf("%d payload bytes for %d words: %.2f bytes a word", pay, words, perWord)
	}
}
