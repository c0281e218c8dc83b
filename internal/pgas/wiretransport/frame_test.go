package wiretransport

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"pgasgraph/internal/pgas"
)

// unreached is the kernels' "no value" sentinel (bfs.Unreached,
// sssp.Unreached): the word that widens the run it is in to 8 bytes.
const unreached = int64(math.MaxInt64)

// TestHeaderRoundTrip: every header field survives put/parse.
func TestHeaderRoundTrip(t *testing.T) {
	h := header{
		typ: frGetResp, status: stBadWindow, width: 5,
		w:   pgas.Win{Kind: pgas.WinReduce, ID: 0xdeadbeef, Sub: -3},
		off: -1 << 40, count: 1 << 33, reqID: math.MaxUint64, crc: 0x1234abcd,
	}
	var b [headerLen]byte
	h.put(b[:])
	if got := parseHeader(b[:]); got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

// frameBytes encodes one frame exactly as sendOn does.
func frameBytes(h header, payload []int64) []byte {
	var pay []byte
	if len(payload) > 0 {
		pay, h.width = pgas.AppendWords(nil, payload)
		h.crc = crc32.Checksum(pay, castagnoli)
	}
	b := make([]byte, headerLen, headerLen+len(pay))
	h.put(b)
	return append(b, pay...)
}

// bareEndpoint is seat 0 of a two-seat cluster with no mesh behind it:
// frames are fed to readFrame directly, and whatever it sends to seat 1
// drains into a pipe nobody reads from the far side of.
func bareEndpoint(t testing.TB) *Transport {
	local, remote := net.Pipe()
	go io.Copy(io.Discard, remote)
	t.Cleanup(func() {
		local.Close()
		remote.Close()
	})
	tr := newEndpoint(Config{Nodes: 2, Node: 0, Timeout: 5 * time.Second})
	tr.peers[1] = &peerConn{conn: local, bw: bufio.NewWriter(local)}
	return tr
}

// feed applies frames to tr as if seat 1 had sent them, stopping where the
// reader would drop the edge.
func feed(tr *Transport, sc *rxScratch, frames ...[]byte) {
	br := bytes.NewReader(bytes.Join(frames, nil))
	for br.Len() > 0 && tr.readFrame(1, br, sc) {
	}
}

// TestCorruptNarrowFrames: a flipped payload bit in a narrow frame (five
// bits a word behind the base) is
// ErrCorrupt to a GET's waiter, whose buffer stays untouched, and a sticky
// abort on a PUT, whose window stays untouched.
func TestCorruptNarrowFrames(t *testing.T) {
	t.Run("getresp", func(t *testing.T) {
		tr := bareEndpoint(t)
		dst := []int64{-1, -1, -1}
		id, ch := tr.register(1, dst)
		fr := frameBytes(header{typ: frGetResp, count: 3, reqID: id}, []int64{10, 20, 30})
		if parseHeader(fr).width != 5 || len(fr) != headerLen+8+2 {
			t.Fatalf("fixture is not a frame of five-bit words (%d bytes)", len(fr))
		}
		fr[headerLen+9] ^= 0x10
		feed(tr, new(rxScratch), fr)
		select {
		case r := <-ch:
			if !errors.Is(r.err, pgas.ErrCorrupt) {
				t.Fatalf("waiter got %+v, want ErrCorrupt", r)
			}
		default:
			t.Fatal("corrupt response never reached its waiter")
		}
		if dst[0] != -1 || dst[1] != -1 || dst[2] != -1 {
			t.Fatalf("corrupt payload reached the caller's buffer: %v", dst)
		}
		if tr.aborted() {
			t.Fatal("a corrupt response poisoned the transport; it is the waiter's to retry")
		}
	})
	t.Run("put", func(t *testing.T) {
		tr := bareEndpoint(t)
		w := pgas.Win{Kind: pgas.WinArray, ID: 1}
		data := []int64{7, 7, 7, 7}
		tr.Expose(w, data)
		fr := frameBytes(header{typ: frPut, w: w, off: 1, count: 2}, []int64{100, 200})
		fr[len(fr)-1] ^= 0x01
		feed(tr, new(rxScratch), fr)
		if !tr.aborted() {
			t.Fatal("corrupt PUT did not poison the transport")
		}
		if err := tr.abortErr(nil, "test"); !errors.Is(err, pgas.ErrTransport) {
			t.Fatalf("abort error %v, want ErrTransport", err)
		}
		for i, v := range data {
			if v != 7 {
				t.Fatalf("corrupt PUT reached the window: data[%d] = %d", i, v)
			}
		}
	})
}

// TestVerifiedFramesApplyInPlace: clean frames at widths 0, 2, 21, 63 and 64
// land directly in their destinations — the window for a PUT, the waiter's
// buffer for a GETRESP.
func TestVerifiedFramesApplyInPlace(t *testing.T) {
	tr := bareEndpoint(t)
	w := pgas.Win{Kind: pgas.WinPlanVal, ID: 2, Sub: 1}
	data := make([]int64, 10)
	tr.Expose(w, data)
	dst := make([]int64, 2)
	id, ch := tr.register(1, dst)
	feed(tr, new(rxScratch),
		frameBytes(header{typ: frPut, w: w, off: 0, count: 3}, []int64{1, 2, 3}),
		frameBytes(header{typ: frPut, w: w, off: 3, count: 3}, []int64{4, unreached, 6}),
		frameBytes(header{typ: frPut, w: w, off: 6, count: 2}, []int64{7, 7}),
		frameBytes(header{typ: frPut, w: w, off: 8, count: 2}, []int64{1 << 20, -9}),
		frameBytes(header{typ: frGetResp, count: 2, reqID: id}, []int64{-9, unreached}),
	)
	if tr.aborted() {
		t.Fatalf("clean frames aborted the transport: %v", tr.abortErr(nil, "test"))
	}
	want := []int64{1, 2, 3, 4, unreached, 6, 7, 7, 1 << 20, -9}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("window = %v, want %v", data, want)
		}
	}
	if r := <-ch; r.err != nil || r.status != stOK || dst[0] != -9 || dst[1] != unreached {
		t.Fatalf("GET completed with %+v, dst %v", r, dst)
	}
}

// FuzzWireFrame: arbitrary bytes on an edge never panic the reader and
// never make it size a buffer beyond what validation admits — here a
// 64-word window, a pending 16-word GET, and the protocol's fixed caps.
func FuzzWireFrame(f *testing.F) {
	w := pgas.Win{Kind: pgas.WinArray, ID: 1}
	f.Add(frameBytes(header{typ: frPut, w: w, off: 4, count: 3}, []int64{1, 2, 3}))             // width 2
	f.Add(frameBytes(header{typ: frPut, w: w, off: 60, count: 4}, []int64{1, unreached, 3, 4})) // width 63
	f.Add(frameBytes(header{typ: frGetResp, count: 16, reqID: 1}, make([]int64, 16)))           // width 0
	f.Add(frameBytes(header{typ: frGet, w: w, off: 0, count: 64, reqID: 9}, nil))
	f.Add(frameBytes(header{typ: frPutMin, w: w, off: 2, count: 1, reqID: 3}, []int64{-5}))
	f.Add(frameBytes(header{typ: frEvict, off: 1, count: 1}, []int64{2}))
	f.Add(frameBytes(header{typ: frAbort, off: 4, count: 1}, []int64{0x6d6f6f62}))
	f.Add(frameBytes(header{typ: frBarrier, off: 1}, nil))
	hostile := frameBytes(header{typ: frPut, w: w, count: 1 << 31}, nil)
	f.Add(hostile)
	f.Add(append(frameBytes(header{typ: frGetResp, count: 1 << 40, reqID: 1}, nil), 1, 2, 3))
	f.Add(frameBytes(header{typ: frPut, w: w, off: 8, count: 3}, []int64{1 << 20, -9, 0})) // width 21
	wide := frameBytes(header{typ: frPut, w: w, count: 3}, []int64{1, 2, 3})
	wide[3] = 65 // no width holds more than 64 bits
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := bareEndpoint(t)
		tr.Expose(w, make([]int64, 64))
		tr.register(1, make([]int64, 16))
		var sc rxScratch
		feed(tr, &sc, data)
		if bound := 8 + maxAbortWords*8; cap(sc.raw) > bound {
			t.Fatalf("reader sized a %d-byte payload buffer; nothing admitted exceeds %d", cap(sc.raw), bound)
		}
		if cap(sc.words) > maxAbortWords {
			t.Fatalf("reader sized a %d-word control buffer; cap is %d", cap(sc.words), maxAbortWords)
		}
	})
}
