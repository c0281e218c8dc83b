package wiretransport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
)

// connectMesh assembles an n-node mesh in one process (the transport is
// process-agnostic: each instance only talks through its sockets).
func connectMesh(t *testing.T, n int, timeout time.Duration) []*Transport {
	t.Helper()
	dir := t.TempDir()
	trs := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for nd := 0; nd < n; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			trs[nd], errs[nd] = Connect(Config{Nodes: n, Node: nd, Dir: dir, Timeout: timeout})
		}(nd)
	}
	wg.Wait()
	for nd, err := range errs {
		if err != nil {
			t.Fatalf("node %d: Connect: %v", nd, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

func TestMeshIdentity(t *testing.T) {
	trs := connectMesh(t, 3, 10*time.Second)
	for nd, tr := range trs {
		if tr.Shared() {
			t.Fatalf("node %d: wire transport claims Shared", nd)
		}
		if tr.Nodes() != 3 || tr.Node() != nd {
			t.Fatalf("node %d: identity %d/%d", nd, tr.Node(), tr.Nodes())
		}
	}
}

// TestPutVisibleAfterRendezvous is the seam's core ordering law: a buffered
// Put to a peer is applied before any later Rendezvous completes.
func TestPutVisibleAfterRendezvous(t *testing.T) {
	const n = 3
	trs := connectMesh(t, n, 10*time.Second)
	bufs := make([][]int64, n)
	for nd, tr := range trs {
		bufs[nd] = make([]int64, n)
		tr.Expose(pgas.Win{Kind: pgas.WinReduce, ID: 1}, bufs[nd])
	}
	var wg sync.WaitGroup
	for nd := 0; nd < n; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr := trs[nd]
			bufs[nd][nd] = int64(100 + nd)
			for peer := 0; peer < n; peer++ {
				if peer == nd {
					continue
				}
				if err := tr.Put(nil, peer, pgas.Win{Kind: pgas.WinReduce, ID: 1}, int64(nd), []int64{int64(100 + nd)}); err != nil {
					t.Errorf("node %d: Put to %d: %v", nd, peer, err)
					return
				}
			}
			if _, err := tr.Rendezvous(0); err != nil {
				t.Errorf("node %d: Rendezvous: %v", nd, err)
				return
			}
			for j := 0; j < n; j++ {
				if bufs[nd][j] != int64(100+j) {
					t.Errorf("node %d: slot %d = %d, want %d", nd, j, bufs[nd][j], 100+j)
				}
			}
		}(nd)
	}
	wg.Wait()
}

func TestRendezvousGlobalMax(t *testing.T) {
	const n = 3
	trs := connectMesh(t, n, 10*time.Second)
	var wg sync.WaitGroup
	for nd := 0; nd < n; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				local := float64(10*round + nd)
				want := float64(10*round + n - 1)
				g, err := trs[nd].Rendezvous(local)
				if err != nil {
					t.Errorf("node %d round %d: %v", nd, round, err)
					return
				}
				if g != want {
					t.Errorf("node %d round %d: global %v, want %v", nd, round, g, want)
				}
			}
		}(nd)
	}
	wg.Wait()
}

func TestGetRemoteWindow(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	src := []int64{7, 11, 13, 17}
	trs[1].Expose(pgas.Win{Kind: pgas.WinPlanReq, ID: 5, Sub: 2}, src)
	dst := make([]int64, 3)
	if err := trs[0].Get(nil, 1, pgas.Win{Kind: pgas.WinPlanReq, ID: 5, Sub: 2}, 1, dst); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if dst[0] != 11 || dst[1] != 13 || dst[2] != 17 {
		t.Fatalf("Get returned %v", dst)
	}
}

// TestWindowLaws holds both backends to the same window laws through the
// Transport interface: Get after Put, the PutMin law, misuse classified as
// ErrMisuse, re-Expose rebinding and Unexpose by id range — on the
// in-process transport, and on a wire mesh both at the calling node (served
// from its own table) and at a remote one (served by its reader). The one
// intended difference is a remote Put outside any window: the owner reads
// it as a protocol violation and aborts (package doc, "Window lifetime"),
// so the caller sees ErrTransport at its next flushing call, not ErrMisuse.
func TestWindowLaws(t *testing.T) {
	in := pgas.NewInprocTransport(2)
	if !in.Shared() || in.Nodes() != 2 || in.Node() != 0 {
		t.Fatalf("inproc geometry: shared=%v nodes=%d node=%d, want true/2/0", in.Shared(), in.Nodes(), in.Node())
	}
	if got, err := in.Rendezvous(12.5); err != nil || got != 12.5 {
		t.Fatalf("inproc Rendezvous: %v/%v, want the identity", got, err)
	}
	rows := []struct {
		name string
		// fabric returns the transport issuing the calls, the one owning
		// the windows, and the owner's node id as the caller names it.
		fabric func(t *testing.T) (caller, owner pgas.Transport, node int)
		remote bool
	}{
		{"inproc", func(*testing.T) (pgas.Transport, pgas.Transport, int) { return in, in, 1 }, false},
		{"wire-local", func(t *testing.T) (pgas.Transport, pgas.Transport, int) {
			trs := connectMesh(t, 2, 5*time.Second)
			return trs[0], trs[0], 0
		}, false},
		{"wire-remote", func(t *testing.T) (pgas.Transport, pgas.Transport, int) {
			trs := connectMesh(t, 2, 5*time.Second)
			return trs[0], trs[1], 1
		}, true},
	}
	misuse := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, pgas.ErrMisuse) {
			t.Fatalf("%s: %v, want ErrMisuse", what, err)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tr, owner, node := row.fabric(t)
			w := pgas.Win{Kind: pgas.WinArray, ID: 7, Sub: 3}
			owner.Expose(w, []int64{10, 20, 30, 40, 50, 60, 70, 80})
			got := make([]int64, 4)
			if err := tr.Put(nil, node, w, 2, []int64{-5, -6}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Get(nil, node, w, 1, got); err != nil || fmt.Sprint(got) != "[20 -5 -6 50]" {
				t.Fatalf("Get after Put: %v err=%v, want [20 -5 -6 50]", got, err)
			}

			// PutMin stores exactly when strictly smaller, and says so.
			if stored, err := tr.PutMin(nil, node, w, 0, 3); err != nil || !stored {
				t.Fatalf("PutMin smaller: stored=%v err=%v, want true/nil", stored, err)
			}
			if stored, err := tr.PutMin(nil, node, w, 0, 9); err != nil || stored {
				t.Fatalf("PutMin larger: stored=%v err=%v, want false/nil", stored, err)
			}
			if err := tr.Get(nil, node, w, 0, got[:1]); err != nil || got[0] != 3 {
				t.Fatalf("after PutMin: %d err=%v, want 3", got[0], err)
			}

			// Unknown windows and ranges that leave one are misuse, never a
			// slice panic.
			misuse(t, "unexposed Get", tr.Get(nil, node, pgas.Win{Kind: pgas.WinArray, ID: 999}, 0, got))
			misuse(t, "out-of-range Get", tr.Get(nil, node, w, 6, got))
			_, err := tr.PutMin(nil, node, w, 8, 0)
			misuse(t, "out-of-range PutMin", err)

			// Re-Expose rebinds the name to the new, shorter slice.
			owner.Expose(w, []int64{1, 2})
			if err := tr.Put(nil, node, w, 0, []int64{42}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Get(nil, node, w, 0, got[:2]); err != nil || got[0] != 42 || got[1] != 2 {
				t.Fatalf("after re-Expose: %v err=%v, want [42 2]", got[:2], err)
			}
			misuse(t, "Get past the rebound window", tr.Get(nil, node, w, 1, got[:2]))

			// Unexpose drops the ids in (lo, hi], every kind and sub under
			// them, and nothing else.
			other, below := pgas.Win{Kind: pgas.WinReduce, ID: 7, Sub: 1}, pgas.Win{Kind: pgas.WinArray, ID: 6}
			owner.Expose(other, []int64{1})
			owner.Expose(below, []int64{1})
			owner.Unexpose(6, 7)
			misuse(t, "Get of a dropped window", tr.Get(nil, node, w, 0, got[:1]))
			misuse(t, "Get of a dropped kind", tr.Get(nil, node, other, 0, got[:1]))
			if err := tr.Get(nil, node, below, 0, got[:1]); err != nil {
				t.Fatalf("Unexpose(6,7) dropped id 6: %v", err)
			}

			err = tr.Put(nil, node, below, -1, got[:1])
			if !row.remote {
				misuse(t, "negative-offset Put", err)
				return
			}
			if err != nil {
				t.Fatalf("a remote Put is buffered, yet it failed at once: %v", err)
			}
			if err := tr.Get(nil, node, below, 0, got[:1]); !errors.Is(err, pgas.ErrTransport) {
				t.Fatalf("after a remote Put outside its window: %v, want ErrTransport", err)
			}
		})
	}
}

func TestGetUnexposedIsMisuse(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	dst := make([]int64, 1)
	err := trs[0].Get(nil, 1, pgas.Win{Kind: pgas.WinArray, ID: 99}, 0, dst)
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("Get of unexposed window: %v, want ErrMisuse", err)
	}
}

func TestPutMinStores(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	data := []int64{100}
	w := pgas.Win{Kind: pgas.WinArray, ID: 3}
	trs[1].Expose(w, data)
	stored, err := trs[0].PutMin(nil, 1, w, 0, 42)
	if err != nil || !stored {
		t.Fatalf("PutMin 42 over 100: stored=%v err=%v", stored, err)
	}
	stored, err = trs[0].PutMin(nil, 1, w, 0, 77)
	if err != nil || stored {
		t.Fatalf("PutMin 77 over 42: stored=%v err=%v", stored, err)
	}
	dst := make([]int64, 1)
	if err := trs[0].Get(nil, 1, w, 0, dst); err != nil || dst[0] != 42 {
		t.Fatalf("after PutMin: %v err=%v", dst, err)
	}
}

// TestRendezvousTimeout: a peer that never arrives surfaces as a classified
// ErrTimeout, not a hang.
func TestRendezvousTimeout(t *testing.T) {
	trs := connectMesh(t, 2, 500*time.Millisecond)
	_, err := trs[0].Rendezvous(1)
	if !errors.Is(err, pgas.ErrTimeout) {
		t.Fatalf("lonely rendezvous: %v, want ErrTimeout", err)
	}
	// The timeout poisoned the transport; later operations fail fast with
	// a classified error instead of waiting out another deadline.
	if _, err := trs[0].Rendezvous(1); !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("rendezvous after poison: %v, want ErrTransport", err)
	}
}

// TestAbortUnblocksPeer: one node's abort reaches a peer blocked in
// Rendezvous as a classified transport error.
func TestAbortUnblocksPeer(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := trs[1].Rendezvous(0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	trs[0].Abort("node 0: region failed")
	select {
	case err := <-done:
		if !errors.Is(err, pgas.ErrTransport) {
			t.Fatalf("peer rendezvous after abort: %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer rendezvous still blocked after abort")
	}
}

// TestCrashEvicts: an EOF without a GOODBYE is a dead peer. The survivor's
// rendezvous resolves promptly with an EvictionError naming the dead node's
// threads — it does not poison the transport and does not wait out the
// deadline.
func TestCrashEvicts(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	start := time.Now()
	trs[1].Fail() // hard close, no GOODBYE
	_, err := trs[0].Rendezvous(0)
	if !errors.Is(err, pgas.ErrEvicted) {
		t.Fatalf("rendezvous against crashed peer: %v, want ErrEvicted", err)
	}
	if ths := pgas.Evicted(err); len(ths) != 1 || ths[0] != 1 {
		t.Fatalf("evicted threads %v, want [1]", pgas.Evicted(err))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("crash detection waited out the deadline (%v)", time.Since(start))
	}
	if trs[0].aborted() {
		t.Fatal("peer crash poisoned the transport; crashes must stay recoverable")
	}
}

// TestFailureClassesPerOperation pins, for every blocking operation, the
// class each way of failing surfaces as:
//
//   - peer crashed (Fail, no GOODBYE): *pgas.EvictionError naming the
//     peer's threads, well inside the deadline, with the transport still
//     usable. EvictNodes is the exception by design: a crash is the
//     agreement's input, so it commits with the peer in the dead set;
//   - peer wedged (connected and HELLOed, never answering): ErrTimeout,
//     which poisons the transport, so the next call is ErrTransport;
//   - local Abort: ErrTransport.
//
// Put is buffered, so its row reads the class at the Get that flushes it.
func TestFailureClassesPerOperation(t *testing.T) {
	w := pgas.Win{Kind: pgas.WinArray, ID: 1}
	ops := []struct {
		name string
		run  func(tr *Transport) error
	}{
		{"Get", func(tr *Transport) error { return tr.Get(nil, 1, w, 0, make([]int64, 1)) }},
		{"PutMin", func(tr *Transport) error { _, err := tr.PutMin(nil, 1, w, 0, 1); return err }},
		{"Put", func(tr *Transport) error {
			if err := tr.Put(nil, 1, w, 0, []int64{1}); err != nil {
				return err
			}
			return tr.Get(nil, 1, w, 0, make([]int64, 1))
		}},
		{"Rendezvous", func(tr *Transport) error { _, err := tr.Rendezvous(0); return err }},
		{"EvictNodes", func(tr *Transport) error {
			agreed, err := tr.EvictNodes(nil)
			if err == nil && (len(agreed) != 1 || agreed[0] != 1) {
				err = fmt.Errorf("agreed %v, want [1]", agreed)
			}
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name+"/crashed", func(t *testing.T) {
			trs := connectMesh(t, 2, 5*time.Second)
			trs[1].Fail()
			start := time.Now()
			err := op.run(trs[0])
			if op.name == "EvictNodes" {
				if err != nil {
					t.Fatalf("agreement over a crashed peer: %v", err)
				}
			} else if ths := pgas.Evicted(err); !errors.Is(err, pgas.ErrEvicted) || len(ths) != 1 || ths[0] != 1 {
				t.Fatalf("against a crashed peer: %v (threads %v), want ErrEvicted naming [1]", err, ths)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("crash took %v to classify; the deadline is 5s", took)
			}
			if trs[0].aborted() {
				t.Fatal("a peer crash poisoned the transport")
			}
		})
		t.Run(op.name+"/wedged", func(t *testing.T) {
			tr, _, err := rawPeer(t, validHello(), 300*time.Millisecond)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			if err := op.run(tr); !errors.Is(err, pgas.ErrTimeout) {
				t.Fatalf("against a wedged peer: %v, want ErrTimeout", err)
			}
			if err := op.run(tr); !errors.Is(err, pgas.ErrTransport) {
				t.Fatalf("after the timeout: %v, want ErrTransport", err)
			}
		})
		t.Run(op.name+"/aborted", func(t *testing.T) {
			trs := connectMesh(t, 2, 5*time.Second)
			trs[0].Abort("local region failed")
			if err := op.run(trs[0]); !errors.Is(err, pgas.ErrTransport) {
				t.Fatalf("after a local Abort: %v, want ErrTransport", err)
			}
		})
	}
}

// TestGoodbyeIsSilent: an EOF after a GOODBYE is an orderly departure, not a
// crash — the survivor never classifies the peer as evicted.
func TestGoodbyeIsSilent(t *testing.T) {
	trs := connectMesh(t, 2, 700*time.Millisecond)
	trs[1].Close() // GOODBYE then close
	time.Sleep(100 * time.Millisecond)
	_, err := trs[0].Rendezvous(0)
	if errors.Is(err, pgas.ErrEvicted) {
		t.Fatalf("clean goodbye classified as eviction: %v", err)
	}
	if !errors.Is(err, pgas.ErrTimeout) && !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("rendezvous after peer goodbye: %v, want ErrTimeout/ErrTransport", err)
	}
}

// TestCrashAgreementAndRemap: 3-node mesh, node 2 dies without a goodbye.
// The survivors detect the crash, agree on the dead set, and continue on the
// shrunk 2-node geometry — data plane and rendezvous — in virtual numbering.
func TestCrashAgreementAndRemap(t *testing.T) {
	trs := connectMesh(t, 3, 10*time.Second)
	trs[2].Fail()

	// Each survivor observes the eviction at its next rendezvous.
	for _, nd := range []int{0, 1} {
		if _, err := trs[nd].Rendezvous(0); !errors.Is(err, pgas.ErrEvicted) {
			t.Fatalf("node %d: rendezvous after crash: %v, want ErrEvicted", nd, err)
		}
	}

	// Both survivors propose; the agreement commits the shrunk view.
	agreedBy := make([][]int, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, nd := range []int{0, 1} {
		wg.Add(1)
		go func(i, nd int) {
			defer wg.Done()
			agreedBy[i], errs[i] = trs[nd].EvictNodes([]int{2})
		}(i, nd)
	}
	wg.Wait()
	for i, nd := range []int{0, 1} {
		if errs[i] != nil {
			t.Fatalf("node %d: EvictNodes: %v", nd, errs[i])
		}
		if len(agreedBy[i]) != 1 || agreedBy[i][0] != 2 {
			t.Fatalf("node %d: agreed %v, want [2]", nd, agreedBy[i])
		}
		if trs[nd].Nodes() != 2 || trs[nd].Node() != nd {
			t.Fatalf("node %d: post-eviction identity %d/%d", nd, trs[nd].Node(), trs[nd].Nodes())
		}
		if trs[nd].SelfEvicted() {
			t.Fatalf("node %d: survivor claims self-eviction", nd)
		}
	}

	// The data plane works in the new virtual numbering.
	w := pgas.Win{Kind: pgas.WinArray, ID: 8}
	trs[1].Expose(w, []int64{41, 42})
	dst := make([]int64, 1)
	if err := trs[0].Get(nil, 1, w, 1, dst); err != nil || dst[0] != 42 {
		t.Fatalf("post-eviction Get: %v err=%v", dst, err)
	}
	// And the rendezvous spans exactly the survivors.
	got := make([]float64, 2)
	for i, nd := range []int{0, 1} {
		wg.Add(1)
		go func(i, nd int) {
			defer wg.Done()
			got[i], errs[i] = trs[nd].Rendezvous(float64(10 + nd))
		}(i, nd)
	}
	wg.Wait()
	for i, nd := range []int{0, 1} {
		if errs[i] != nil || got[i] != 11 {
			t.Fatalf("node %d: post-eviction rendezvous %v err=%v, want 11", nd, got[i], errs[i])
		}
	}
}

// TestCooperativeSelfEviction: a node that must die proposes its own seat,
// participates in the agreement so the survivors commit deterministically,
// and only then hard-closes. The survivors agree without relying on crash
// detection at all.
func TestCooperativeSelfEviction(t *testing.T) {
	trs := connectMesh(t, 3, 10*time.Second)
	agreed := make([][]int, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for nd := 0; nd < 3; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			agreed[nd], errs[nd] = trs[nd].EvictNodes([]int{1})
			if nd == 1 {
				trs[1].Fail()
			}
		}(nd)
	}
	wg.Wait()
	for nd := 0; nd < 3; nd++ {
		if errs[nd] != nil {
			t.Fatalf("node %d: EvictNodes: %v", nd, errs[nd])
		}
		if len(agreed[nd]) != 1 || agreed[nd][0] != 1 {
			t.Fatalf("node %d: agreed %v, want [1]", nd, agreed[nd])
		}
	}
	if !trs[1].SelfEvicted() {
		t.Fatal("evicted node does not report SelfEvicted")
	}
	if trs[0].SelfEvicted() || trs[2].SelfEvicted() {
		t.Fatal("survivor reports SelfEvicted")
	}
	// Survivors renumber densely: original seat 2 is now virtual node 1.
	if trs[0].Nodes() != 2 || trs[0].Node() != 0 || trs[2].Nodes() != 2 || trs[2].Node() != 1 {
		t.Fatalf("post-eviction identities %d/%d and %d/%d",
			trs[0].Node(), trs[0].Nodes(), trs[2].Node(), trs[2].Nodes())
	}
	w := pgas.Win{Kind: pgas.WinArray, ID: 9}
	trs[2].Expose(w, []int64{7})
	dst := make([]int64, 1)
	if err := trs[0].Get(nil, 1, w, 0, dst); err != nil || dst[0] != 7 {
		t.Fatalf("Get across renumbered mesh: %v err=%v", dst, err)
	}
}

// TestEvictionWaitsForTheDeadSeatsFrames: a seat its peers propose dead
// still counts toward the agreement only once its own proposal (or its EOF)
// is read, and both follow every frame it sent. A PUT the dying node
// buffered before proposing is therefore applied before any survivor
// commits, and never reaches a window the commit drops.
func TestEvictionWaitsForTheDeadSeatsFrames(t *testing.T) {
	trs := connectMesh(t, 3, 10*time.Second)
	w := pgas.Win{Kind: pgas.WinReduce, ID: 3}
	win := make([]int64, 2)
	trs[0].Expose(w, win)
	if err := trs[2].Put(nil, 0, w, 1, []int64{77}); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 2)
	errs := make([]error, 3)
	for _, nd := range []int{0, 1} {
		go func(nd int) {
			_, errs[nd] = trs[nd].EvictNodes([]int{2})
			done <- nd
		}(nd)
	}
	select {
	case nd := <-done:
		t.Fatalf("node %d committed before the dead seat proposed", nd)
	case <-time.After(200 * time.Millisecond):
	}
	if _, errs[2] = trs[2].EvictNodes([]int{2}); errs[2] != nil {
		t.Fatalf("node 2: EvictNodes: %v", errs[2])
	}
	<-done
	<-done
	for nd, err := range errs[:2] {
		if err != nil {
			t.Fatalf("node %d: EvictNodes: %v", nd, err)
		}
	}
	if win[1] != 77 {
		t.Fatalf("the dead seat's buffered PUT landed after the commit: window %v", win)
	}
}

// TestAbortFirstCauseWins: the sticky abort keeps its first cause across
// later local and remote abort attempts, and the cause propagates to peers.
func TestAbortFirstCauseWins(t *testing.T) {
	trs := connectMesh(t, 2, 10*time.Second)
	trs[0].Abort("boom-alpha")
	deadline := time.Now().Add(5 * time.Second)
	for !trs[1].aborted() {
		if time.Now().After(deadline) {
			t.Fatal("abort never reached the peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trs[1].Abort("boom-beta") // must lose: first cause wins
	_, err := trs[1].Rendezvous(0)
	if !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("rendezvous on aborted transport: %v, want ErrTransport", err)
	}
	if !strings.Contains(err.Error(), "boom-alpha") {
		t.Fatalf("abort cause lost: %v, want the first cause (boom-alpha)", err)
	}
	if strings.Contains(err.Error(), "boom-beta") {
		t.Fatalf("later abort overwrote the first cause: %v", err)
	}
	if !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("remote abort cause does not name the origin node: %v", err)
	}
}

// TestErrorsNamePeerAndAddress: every wire timeout/transport error names the
// originating node, the remote node, and the remote address, so an abort
// cause says which edge failed.
func TestErrorsNamePeerAndAddress(t *testing.T) {
	trs := connectMesh(t, 2, 700*time.Millisecond)
	w := pgas.Win{Kind: pgas.WinArray, ID: 4}
	trs[1].Expose(w, []int64{1})
	// Wedge the serve path on node 1 so node 0's Get misses its deadline.
	trs[1].rmu.Lock()
	defer trs[1].rmu.Unlock()
	err := trs[0].Get(nil, 1, w, 0, make([]int64, 1))
	if !errors.Is(err, pgas.ErrTimeout) {
		t.Fatalf("Get against wedged peer: %v, want ErrTimeout", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "node 0 -> node 1") {
		t.Fatalf("timeout does not name the edge: %q", msg)
	}
	if !strings.Contains(msg, trs[0].cfg.addr(1)) {
		t.Fatalf("timeout does not name the remote address: %q", msg)
	}
}

// TestTCPMesh: the same mesh assembles over TCP loopback with the same
// semantics — identity, data plane, rendezvous.
func TestTCPMesh(t *testing.T) {
	const n = 2
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	trs := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for nd := 0; nd < n; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			trs[nd], errs[nd] = Connect(Config{
				Nodes: n, Node: nd, Network: "tcp", Addrs: addrs, Timeout: 10 * time.Second,
			})
		}(nd)
	}
	wg.Wait()
	for nd, err := range errs {
		if err != nil {
			t.Fatalf("node %d: tcp Connect: %v", nd, err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	w := pgas.Win{Kind: pgas.WinArray, ID: 2}
	trs[1].Expose(w, []int64{5, 6})
	dst := make([]int64, 2)
	if err := trs[0].Get(nil, 1, w, 0, dst); err != nil || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("tcp Get: %v err=%v", dst, err)
	}
	got := make([]float64, n)
	for nd := 0; nd < n; nd++ {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			got[nd], errs[nd] = trs[nd].Rendezvous(float64(nd))
		}(nd)
	}
	wg.Wait()
	for nd := 0; nd < n; nd++ {
		if errs[nd] != nil || got[nd] != 1 {
			t.Fatalf("node %d: tcp rendezvous %v err=%v", nd, got[nd], errs[nd])
		}
	}
}

// TestTCPConfigValidation: a TCP mesh without a full address list is misuse.
func TestTCPConfigValidation(t *testing.T) {
	_, err := Connect(Config{Nodes: 2, Node: 0, Network: "tcp", Addrs: []string{"127.0.0.1:1"}})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("tcp with short addr list: %v, want ErrMisuse", err)
	}
	_, err = Connect(Config{Nodes: 2, Node: 0, Network: "quic", Dir: t.TempDir()})
	if !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unknown network: %v, want ErrMisuse", err)
	}
}
