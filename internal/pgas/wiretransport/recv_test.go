package wiretransport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
)

// rawPeer connects node 0 of a two-seat cluster and plays seat 1 from a
// bare socket that has sent hello (a complete 40-byte HELLO header), with
// node 0's operations bounded by timeout. It returns the socket and
// whatever Connect returned on node 0.
func rawPeer(t *testing.T, hello header, timeout time.Duration) (*Transport, net.Conn, error) {
	t.Helper()
	dir := t.TempDir()
	type result struct {
		tr  *Transport
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := Connect(Config{Nodes: 2, Node: 0, Dir: dir, Timeout: timeout})
		done <- result{tr, err}
	}()
	var conn net.Conn
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if conn, err = net.Dial("unix", socketPath(dir, 0)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never listened: %v", err)
		}
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(frameBytes(hello, nil)); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	r := <-done
	if r.tr != nil {
		t.Cleanup(func() { r.tr.Close() })
	}
	return r.tr, conn, r.err
}

func validHello() header {
	return header{typ: frHello, w: pgas.Win{Sub: 1}, off: protoVersion}
}

// waitAborted polls for the sticky abort and returns its error.
func waitAborted(t *testing.T, tr *Transport) error {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !tr.aborted(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("transport never aborted")
		}
	}
	return tr.abortErr(nil, "test")
}

// TestHostileHeaderAbortsBeforeAllocating: after a valid HELLO, a header
// announcing a 2^31-word payload costs the receiver an abort naming the
// edge — not 16 GiB. Each hostile shape is rejected from the header alone,
// so none of them is followed by a single payload byte.
func TestHostileHeaderAbortsBeforeAllocating(t *testing.T) {
	exposed := pgas.Win{Kind: pgas.WinArray, ID: 1}
	cases := []struct {
		name string
		h    header
	}{
		{"put beyond its window", header{typ: frPut, w: exposed, off: 0, count: 1 << 31}},
		{"put to nothing", header{typ: frPut, w: pgas.Win{Kind: pgas.WinArray, ID: 77}, count: 1 << 31}},
		{"put with negative count", header{typ: frPut, w: exposed, count: -1}},
		{"put overflowing offset", header{typ: frPut, w: exposed, off: 1 << 62, count: 1 << 62}},
		{"response nobody asked for", header{typ: frGetResp, count: 1 << 31, reqID: 5}},
		{"oversized putmin", header{typ: frPutMin, w: exposed, count: 1 << 31, reqID: 1}},
		{"oversized evict", header{typ: frEvict, off: 1, count: 1 << 31}},
		{"oversized abort", header{typ: frAbort, count: maxAbortWords + 1}},
		{"width 65", header{typ: frPut, w: exposed, count: 2, width: 65}},
		{"width on an empty put", header{typ: frPut, w: exposed, count: 0, width: 2}},
		{"width on a get", header{typ: frGet, w: exposed, count: 4, width: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, conn, err := rawPeer(t, validHello(), 5*time.Second)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			tr.Expose(exposed, make([]int64, 8))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(frameBytes(c.h, nil)); err != nil {
				t.Fatalf("write hostile header: %v", err)
			}
			cause := waitAborted(t, tr)
			runtime.ReadMemStats(&after)
			if !errors.Is(cause, pgas.ErrTransport) {
				t.Fatalf("abort cause %v, want ErrTransport", cause)
			}
			if !strings.Contains(cause.Error(), "node 0 -> node 1") {
				t.Fatalf("abort cause does not name the edge: %v", cause)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("a 40-byte header made the receiver allocate %d bytes", grew)
			}
		})
	}
}

// TestHelloVersionMismatch: a dialer speaking another wire format fails the
// acceptor's Connect with a classified error naming both versions and the
// peer, and the dialer is told why.
func TestHelloVersionMismatch(t *testing.T) {
	hello := validHello()
	hello.off = protoVersion + 1
	tr, conn, err := rawPeer(t, hello, 5*time.Second)
	if tr != nil || !errors.Is(err, pgas.ErrTransport) {
		t.Fatalf("Connect with a v%d dialer: tr=%v err=%v, want ErrTransport", hello.off, tr, err)
	}
	msg := err.Error()
	for _, want := range []string{"v4", "v5", "node 1", "node-1.sock"} {
		if !strings.Contains(msg, want) {
			t.Errorf("mismatch error %q does not mention %q", msg, want)
		}
	}
	// The refused dialer reads an ABORT carrying the same cause.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var raw [headerLen]byte
	if _, err := io.ReadFull(conn, raw[:]); err != nil {
		t.Fatalf("dialer read: %v", err)
	}
	if h := parseHeader(raw[:]); h.typ != frAbort || h.off != int64(len(msg)) {
		t.Fatalf("dialer got frame type %d (cause length %d), want ABORT of %d bytes", h.typ, h.off, len(msg))
	}
}

// TestLateResponseNeverWritesDst races a GET's response against the abort
// that makes its waiter give up. Whichever wins, the caller owns dst again
// once Get has returned: the test overwrites it immediately, which the race
// detector flags if the reader could still be decoding into it.
func TestLateResponseNeverWritesDst(t *testing.T) {
	const rounds = 200
	payload := []int64{11, 22, 33, 44}
	for round := 0; round < rounds; round++ {
		tr := bareEndpoint(t)
		dst := make([]int64, len(payload))
		got := make(chan error, 1)
		go func() { got <- tr.Get(nil, 1, pgas.Win{Kind: pgas.WinArray, ID: 1}, 0, dst) }()
		for pending := 0; pending == 0; runtime.Gosched() {
			tr.pendMu.Lock()
			pending = len(tr.pend)
			tr.pendMu.Unlock()
		}
		resp := frameBytes(header{typ: frGetResp, count: int64(len(payload)), reqID: 1}, payload)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); feed(tr, new(rxScratch), resp) }()
		go func() { defer wg.Done(); tr.Abort("waiter gives up") }()
		err := <-got
		delivered := true
		for i := range dst {
			delivered = delivered && dst[i] == payload[i]
			dst[i] = -1 // the caller's buffer again
		}
		if err == nil && !delivered {
			t.Fatalf("round %d: Get succeeded with a half-written buffer", round)
		}
		wg.Wait()
		for i := range dst {
			if dst[i] != -1 {
				t.Fatalf("round %d: dst[%d] written after Get returned (%v)", round, i, err)
			}
		}
	}
}

// TestUnexposeDropsIDRange: Unexpose drops exactly the ids in (lo, hi],
// whatever kind or sub they were exposed under; a dropped window refuses a
// GET like one never exposed, and a PUT naming it is a protocol violation.
func TestUnexposeDropsIDRange(t *testing.T) {
	trs := connectMesh(t, 2, 5*time.Second)
	kept := []pgas.Win{{Kind: pgas.WinArray, ID: 2}, {Kind: pgas.WinReduce, ID: 6, Sub: 1}}
	dropped := []pgas.Win{{Kind: pgas.WinArray, ID: 3}, {Kind: pgas.WinPlanReq, ID: 4, Sub: 7}, {Kind: pgas.WinMatS, ID: 5}}
	for _, w := range append(append([]pgas.Win{}, kept...), dropped...) {
		trs[1].Expose(w, []int64{int64(w.ID)})
	}
	trs[1].Unexpose(2, 5)
	if got := trs[1].Stats().Windows; got != len(kept) {
		t.Fatalf("%d windows exposed after Unexpose(2,5), want %d", got, len(kept))
	}
	dst := make([]int64, 1)
	for _, w := range kept {
		if err := trs[0].Get(nil, 1, w, 0, dst); err != nil || dst[0] != int64(w.ID) {
			t.Fatalf("kept window %+v: %v err=%v", w, dst, err)
		}
	}
	for _, w := range dropped {
		if err := trs[0].Get(nil, 1, w, 0, dst); !errors.Is(err, pgas.ErrMisuse) {
			t.Fatalf("dropped window %+v: Get err=%v, want ErrMisuse", w, err)
		}
	}
	if err := trs[0].Put(nil, 1, dropped[0], 0, []int64{1}); err != nil {
		t.Fatalf("Put (buffered): %v", err)
	}
	// The next ordering frame flushes the PUT; node 1 aborts on it.
	_, _ = trs[0].Rendezvous(0)
	if cause := waitAborted(t, trs[1]); !strings.Contains(cause.Error(), "protocol violation") {
		t.Fatalf("PUT to a dropped window: abort cause %v", cause)
	}
}

// TestStatsBalance: after a quiescent point, what the mesh sent is what it
// received, frame type by frame type; every payload is its 8-byte base
// plus its words packed at the bit width of their range; buffered PUTs
// left in one flush.
func TestStatsBalance(t *testing.T) {
	const n = 3
	trs := connectMesh(t, n, 5*time.Second)
	w := pgas.Win{Kind: pgas.WinArray, ID: 1}
	for _, tr := range trs {
		tr.Expose(w, make([]int64, 16))
	}
	var wg sync.WaitGroup
	for nd := range trs {
		wg.Add(1)
		go func(nd int) {
			defer wg.Done()
			tr, peer := trs[nd], (nd+1)%n
			for k := int64(0); k < 4; k++ {
				if err := tr.Put(nil, peer, w, k, []int64{k}); err != nil {
					t.Errorf("node %d: Put: %v", nd, err)
				}
			}
			if err := tr.Put(nil, peer, w, 8, []int64{unreached}); err != nil {
				t.Errorf("node %d: Put: %v", nd, err)
			}
			if err := tr.Get(nil, peer, w, 0, make([]int64, 16)); err != nil {
				t.Errorf("node %d: Get: %v", nd, err)
			}
			if _, err := tr.Rendezvous(0); err != nil {
				t.Errorf("node %d: Rendezvous: %v", nd, err)
			}
		}(nd)
	}
	wg.Wait()

	sent := map[string]FrameCount{}
	recv := map[string]FrameCount{}
	var puts, flushes, payloads, words uint64
	for _, tr := range trs {
		s := tr.Stats()
		for _, r := range s.Sent {
			c := sent[r.Type]
			sent[r.Type] = FrameCount{r.Type, c.Frames + r.Frames, c.Bytes + r.Bytes}
		}
		for _, r := range s.Recv {
			c := recv[r.Type]
			recv[r.Type] = FrameCount{r.Type, c.Frames + r.Frames, c.Bytes + r.Bytes}
		}
		puts, flushes = puts+s.Puts, flushes+s.PutFlushes
		payloads, words = payloads+s.PayloadFrames, words+s.PayloadWords
		if s.Windows != 1 {
			t.Errorf("%d windows exposed, want 1", s.Windows)
		}
	}
	for typ, s := range sent {
		if r := recv[typ]; r != s {
			t.Errorf("%s: sent %+v, received %+v", typ, s, r)
		}
	}
	// A one-word run is its base alone at width 0: each of a node's five
	// one-word PUTs is 8 bytes, sentinel or not (protocol 2 sent four of
	// them at 4 bytes; on cc-wire the few-word matrix and reducer PUTs this
	// makes dearer add ≈ 9 KB to a 24.4 MB op). The window a GET reads
	// holds 0..3 and a sentinel, a range of 2^63 - 1: 8 + 16×63/8 bytes
	// (protocol 3: 8 + 16×8; protocol 2: 16×8, no base).
	if got := sent["PUT"]; got.Frames != 5*n || got.Bytes != n*5*8 {
		t.Errorf("PUT traffic %+v, want %d frames / %d bytes (five bare bases per node)", got, 5*n, n*5*8)
	}
	if got := sent["GETRESP"]; got.Frames != n || got.Bytes != n*(8+16*63/8) {
		t.Errorf("GETRESP traffic %+v, want %d frames of a base and 16 words at width 63 (the window holds a sentinel)", got, n)
	}
	if puts != 5*n || flushes != n {
		t.Errorf("%d puts in %d flushes, want %d in %d (one GET flushes a node's five)", puts, flushes, 5*n, n)
	}
	if payloads != 6*n || words != (5+16)*n {
		t.Errorf("%d payload frames carrying %d words, want %d carrying %d", payloads, words, 6*n, (5+16)*n)
	}
}
