package wiretransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"pgasgraph/internal/pgas"
)

// frame types
const (
	frHello uint8 = iota + 1
	frGet
	frGetResp
	frPut
	frPutMin
	frPutMinResp
	frBarrier
	frAbort
	frGoodbye
	frEvict

	numFrameTypes = int(frEvict) + 1
)

var frameNames = [numFrameTypes]string{
	frHello: "HELLO", frGet: "GET", frGetResp: "GETRESP", frPut: "PUT",
	frPutMin: "PUTMIN", frPutMinResp: "PUTMINRESP", frBarrier: "BARRIER",
	frAbort: "ABORT", frGoodbye: "GOODBYE", frEvict: "EVICT",
}

// response status codes (header byte 2)
const (
	stOK uint8 = iota
	stStored
	stBadWindow
)

const headerLen = 40

// protoVersion is the wire-format revision HELLO carries. A mesh only
// assembles between binaries that agree on it: the format has no other
// self-description, so a mixed cluster would otherwise die mid-run on
// checksum and length aborts. Bump it with every change to the header
// layout or the payload encoding.
const protoVersion = 4

// maxAbortWords caps an ABORT frame's cause text (8 bytes of text per
// word). The sender truncates to it and the receiver rejects anything
// longer before reading it.
const maxAbortWords = 512

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is one frame's fixed 40-byte prefix; see the package comment for
// the layout. Fields a frame type does not use travel as zero.
type header struct {
	typ    uint8
	status uint8
	width  uint8 // bits per payload word after the base (pgas.AppendWords)
	w      pgas.Win
	off    int64
	count  int64
	reqID  uint64
	crc    uint32
}

func (h *header) put(b []byte) {
	b[0] = h.typ
	b[1] = byte(h.w.Kind)
	b[2] = h.status
	b[3] = h.width
	binary.LittleEndian.PutUint32(b[4:8], h.w.ID)
	binary.LittleEndian.PutUint32(b[8:12], uint32(h.w.Sub))
	binary.LittleEndian.PutUint64(b[12:20], uint64(h.off))
	binary.LittleEndian.PutUint64(b[20:28], uint64(h.count))
	binary.LittleEndian.PutUint64(b[28:36], h.reqID)
	binary.LittleEndian.PutUint32(b[36:40], h.crc)
}

func parseHeader(b []byte) header {
	return header{
		typ:    b[0],
		status: b[2],
		width:  b[3],
		w: pgas.Win{
			Kind: pgas.WinKind(b[1]),
			ID:   binary.LittleEndian.Uint32(b[4:8]),
			Sub:  int32(binary.LittleEndian.Uint32(b[8:12])),
		},
		off:   int64(binary.LittleEndian.Uint64(b[12:20])),
		count: int64(binary.LittleEndian.Uint64(b[20:28])),
		reqID: binary.LittleEndian.Uint64(b[28:36]),
		crc:   binary.LittleEndian.Uint32(b[36:40]),
	}
}

// hasPayload reports whether count words follow the header. For the other
// frame types count is metadata (a GET's request length) or unused.
func (h *header) hasPayload() bool {
	switch h.typ {
	case frPut, frPutMin, frAbort, frEvict:
		return true
	case frGetResp:
		return h.count > 0
	}
	return false
}

// payloadLen is the byte length of an admitted payload: the base and count
// words packed at the header's width, or nothing for an empty run.
func (h *header) payloadLen() int {
	if h.count == 0 {
		return 0
	}
	return 8 + (int(h.count)*int(h.width)+7)/8
}

// sendOn is the one frame encoder: header, payload as pgas.AppendWords
// writes it (base, then every word at the width the run's range needs),
// CRC-32C over exactly the payload bytes, written to p under its write
// lock. flush pushes the connection's buffered frames (earlier coalesced
// PUTs included) onto the wire with a write deadline, so a wedged peer
// surfaces as an error here rather than a hang.
func (t *Transport) sendOn(p *peerConn, nd int, h header, payload []int64, flush bool) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()

	var pay []byte
	if len(payload) > 0 {
		p.pay, h.width = pgas.AppendWords(p.pay[:0], payload)
		pay = p.pay
		h.crc = crc32.Checksum(pay, castagnoli)
	}
	h.put(p.hdr[:])
	// Count before the bytes can leave: a Write that overflows the buffer
	// pushes the frame to the peer, whose reader counts it at once, and a
	// Stats() taken in between must never see more received than sent. A
	// failed write poisons the transport, so counting it is harmless.
	t.ctr.sentFrames[h.typ].Add(1)
	if len(pay) > 0 {
		t.ctr.sentBytes[h.typ].Add(uint64(len(pay)))
		t.ctr.payloadSent.Add(1)
		t.ctr.payloadWords.Add(uint64(len(payload)))
	}
	if _, err := p.bw.Write(p.hdr[:]); err != nil {
		return pgas.Errorf(pgas.ErrTransport, -1, "wire send", "%s: %v", t.edge(nd), err)
	}
	if _, err := p.bw.Write(pay); err != nil {
		return pgas.Errorf(pgas.ErrTransport, -1, "wire send", "%s: %v", t.edge(nd), err)
	}
	if h.typ == frPut {
		p.puts++
	}
	if flush {
		p.conn.SetWriteDeadline(time.Now().Add(t.cfg.Timeout))
		if err := p.bw.Flush(); err != nil {
			class := pgas.ErrTransport
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				class = pgas.ErrTimeout
			}
			return pgas.Errorf(class, -1, "wire send", "flush %s: %v", t.edge(nd), err)
		}
		if p.puts > 0 {
			t.ctr.puts.Add(p.puts)
			t.ctr.putFlushes.Add(1)
			p.puts = 0
		}
	}
	return nil
}

// rxScratch is one reader's reusable buffers: the header, the payload
// bytes as read (checksummed here before any word is applied), and the
// decoded words of control frames.
type rxScratch struct {
	hdr   [headerLen]byte
	raw   []byte
	words []int64
}

// readLoop drains one mesh edge. Every frame is applied under rmu; answers
// (GETRESP, PUTMINRESP) are sent from fresh goroutines over snapshots so a
// reader never blocks on a send — the mesh cannot deadlock on mutual
// bulk responses.
func (t *Transport) readLoop(nd int, p *peerConn) {
	br := bufio.NewReader(p.conn)
	var sc rxScratch
	for t.readFrame(nd, br, &sc) {
	}
}

// readFrame receives and applies one frame from seat nd, in the order
// validate → read → verify → apply (see the package comment). It reports
// whether the edge is still worth reading.
func (t *Transport) readFrame(nd int, br io.Reader, sc *rxScratch) bool {
	if _, err := io.ReadFull(br, sc.hdr[:]); err != nil {
		t.connDown(nd, err)
		return false
	}
	h := parseHeader(sc.hdr[:])
	if h.typ < frHello || int(h.typ) >= numFrameTypes {
		t.Abort(fmt.Sprintf("%s: unknown frame type %d", t.edge(nd), h.typ))
		return false
	}
	t.ctr.recvFrames[h.typ].Add(1)
	if h.width > 64 || h.width != 0 && (!h.hasPayload() || h.count == 0) {
		return t.violation(nd, "%s of %d words at width %d", frameNames[h.typ], h.count, h.width)
	}

	var raw []byte
	if h.hasPayload() {
		if !t.admit(nd, &h) {
			return false
		}
		need := h.payloadLen()
		if cap(sc.raw) < need {
			sc.raw = make([]byte, need)
		}
		raw = sc.raw[:need]
		if _, err := io.ReadFull(br, raw); err != nil {
			t.connDown(nd, err)
			return false
		}
		t.ctr.recvBytes[h.typ].Add(uint64(need))
		if crc32.Checksum(raw, castagnoli) != h.crc {
			t.frameCorrupt(nd, h.typ, h.reqID)
			return true
		}
	}

	switch h.typ {
	case frPut:
		t.applyPut(nd, &h, raw)
	case frGet:
		t.serveGet(nd, &h)
	case frPutMin:
		t.servePutMin(nd, &h, sc.decode(&h, raw)[0])
	case frGetResp:
		t.deliver(&h, raw)
	case frPutMinResp:
		t.resolve(h.reqID, wireResp{status: h.status})
	case frBarrier:
		t.applyBarrier(uint64(h.w.ID), uint64(h.off), math.Float64frombits(h.reqID))
	case frEvict:
		t.applyEvict(nd, uint64(h.off), sc.decode(&h, raw))
	case frAbort:
		words := sc.decode(&h, raw)
		b := make([]byte, len(words)*8)
		for j, v := range words {
			binary.LittleEndian.PutUint64(b[j*8:], uint64(v))
		}
		n := h.off // the text's byte length rides the offset field
		if n < 0 || n > int64(len(b)) {
			n = int64(len(b))
		}
		t.Abort(fmt.Sprintf("node %d aborted: %s", nd, string(b[:n])))
	case frGoodbye:
		t.departed[nd].Store(true)
	case frHello:
		// Late HELLO is a protocol violation, not a crash.
		t.Abort(fmt.Sprintf("%s: unexpected HELLO", t.edge(nd)))
		return false
	}
	return true
}

// decode returns a verified control payload's words in the reader's
// scratch (valid until the next frame).
func (sc *rxScratch) decode(h *header, raw []byte) []int64 {
	if int64(cap(sc.words)) < h.count {
		sc.words = make([]int64, h.count)
	}
	words := sc.words[:h.count]
	pgas.DecodeWords(words, raw, h.width, false)
	return words
}

// violation aborts the transport on a frame no correct peer sends, with a
// cause naming the edge, and reports that the edge is not worth reading.
func (t *Transport) violation(nd int, format string, args ...interface{}) bool {
	t.Abort(fmt.Sprintf("%s: protocol violation: %s", t.edge(nd), fmt.Sprintf(format, args...)))
	return false
}

// admit bounds a payload from its header alone, before a byte of it is
// read or a buffer is sized for it: a PUT must fit its exposed window, a
// GETRESP must answer a pending GET of exactly its length, and PUTMIN,
// EVICT and ABORT payloads have fixed sizes. Anything else is a protocol
// violation: the transport aborts with a cause naming the edge and the
// edge is dropped. The one quiet refusal is a response whose waiter is
// already gone for a classified reason (the transport aborted, or the
// seat was declared crashed from the write side) — nothing is left to
// deliver it to.
func (t *Transport) admit(nd int, h *header) bool {
	switch h.typ {
	case frPut:
		if _, err := t.Window(nil, "wire recv", h.w, h.off, h.count); err != nil {
			return t.violation(nd, "PUT of %d words at offset %d outside any exposed window %+v", h.count, h.off, h.w)
		}
	case frPutMin:
		if h.count != 1 {
			return t.violation(nd, "PUTMIN carrying %d words, want 1", h.count)
		}
	case frEvict:
		if h.count != int64(t.evictWords()) {
			return t.violation(nd, "EVICT bitmap of %d words, want %d", h.count, t.evictWords())
		}
	case frAbort:
		if h.count < 0 || h.count > maxAbortWords {
			return t.violation(nd, "ABORT cause of %d words, cap %d", h.count, maxAbortWords)
		}
	case frGetResp:
		t.pendMu.Lock()
		pr, ok := t.pend[h.reqID]
		t.pendMu.Unlock()
		if !ok {
			if t.aborted() || t.crashedFast(nd) != nil {
				return false
			}
			return t.violation(nd, "GETRESP of %d words for unknown request %d", h.count, h.reqID)
		}
		if pr.seat != nd || h.status != stOK || h.count != int64(len(pr.dst)) {
			return t.violation(nd, "GETRESP of %d words (status %d) for request %d, which asked node %d for %d",
				h.count, h.status, h.reqID, pr.seat, len(pr.dst))
		}
	}
	return true
}

// frameCorrupt reports a checksum mismatch. A corrupt response is delivered
// to its waiter as ErrCorrupt (the caller decides whether to retry above
// the seam); a corrupt one-way frame poisons the transport — its effect is
// lost and the region cannot be trusted.
func (t *Transport) frameCorrupt(nd int, typ uint8, reqID uint64) {
	err := pgas.Errorf(pgas.ErrCorrupt, -1, "wire recv",
		"checksum mismatch on frame type %d from node %d at node %d", typ, nd, t.cfg.Node)
	if typ == frGetResp {
		t.resolve(reqID, wireResp{err: err})
		return
	}
	t.Abort(err.Error())
}

// applyPut decodes a verified PUT payload straight into its window. The
// window is looked up again under rmu: admit's lookup only bounded the
// read.
func (t *Transport) applyPut(nd int, h *header, raw []byte) {
	t.rmu.Lock()
	data, err := t.Window(nil, "wire recv", h.w, h.off, h.count)
	if err == nil {
		pgas.DecodeWords(data, raw, h.width, h.w.Kind == pgas.WinArray)
	}
	t.rmu.Unlock()
	if err != nil {
		t.Abort(fmt.Sprintf("node %d put to unexposed window %+v [%d,%d) at node %d", nd, h.w, h.off, h.off+h.count, t.cfg.Node))
	}
}

// deliver completes a GET: it claims the pending request, then decodes the
// verified payload into the waiter's buffer. A waiter that gave up first
// has already taken the entry, and its buffer is left alone.
func (t *Transport) deliver(h *header, raw []byte) {
	pr, ok := t.claim(h.reqID)
	if !ok {
		return
	}
	r := wireResp{status: h.status}
	if h.status == stOK {
		if h.count == int64(len(pr.dst)) {
			pgas.DecodeWords(pr.dst, raw, h.width, false)
		} else {
			r.status = stBadWindow
		}
	}
	pr.ch <- r
}

// snapshots recycles the GET serve path's snapshot buffers across
// requests and connections.
var snapshots sync.Pool

func getSnapshot(n int64) *[]int64 {
	if s, _ := snapshots.Get().(*[]int64); s != nil && int64(cap(*s)) >= n {
		*s = (*s)[:n]
		return s
	}
	s := make([]int64, n)
	return &s
}

// serveGet snapshots the requested words under rmu and answers off the
// reader goroutine over the snapshot: the reader keeps draining while bulk
// responses flow the other way. On an aborted transport requests go
// unanswered — the requester unwinds on the abort it was sent, not on a
// refusal that only reflects this node tearing down.
func (t *Transport) serveGet(nd int, h *header) {
	if t.aborted() {
		return
	}
	resp := header{typ: frGetResp, status: stBadWindow, reqID: h.reqID}
	var snap *[]int64
	t.rmu.Lock()
	if _, err := t.Window(nil, "wire recv", h.w, h.off, h.count); err == nil {
		// Bounded before the snapshot is sized; the Read cannot fail, as
		// windows change only when no peer can address them.
		snap = getSnapshot(h.count)
		_ = t.Read(nil, "wire recv", h.w, h.off, *snap)
		resp.status, resp.count = stOK, h.count
	}
	t.rmu.Unlock()
	go func() {
		if snap == nil {
			_ = t.send(nd, resp, nil, true)
			return
		}
		_ = t.send(nd, resp, *snap, true)
		snapshots.Put(snap)
	}()
}

func (t *Transport) servePutMin(nd int, h *header, v int64) {
	if t.aborted() {
		return
	}
	resp := header{typ: frPutMinResp, status: stBadWindow, reqID: h.reqID}
	t.rmu.Lock()
	if stored, err := t.Min(nil, "wire recv", h.w, h.off, v); stored {
		resp.status = stStored
	} else if err == nil {
		resp.status = stOK
	}
	t.rmu.Unlock()
	go func() { _ = t.send(nd, resp, nil, true) }()
}
