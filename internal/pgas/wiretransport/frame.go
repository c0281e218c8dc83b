package wiretransport

import (
	"encoding/binary"
	"hash/crc32"

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

// flagNarrow (header byte 3) marks a payload of 4-byte words.
const flagNarrow uint8 = 1

const headerLen = 40

// protoVersion is the wire-format revision HELLO carries. A mesh only
// assembles between binaries that agree on it: the format has no other
// self-description, so a mixed cluster would otherwise die mid-run on
// checksum and length aborts. Bump it with every change to the header
// layout or the payload encoding.
const protoVersion = 2

// maxAbortWords caps an ABORT frame's cause text (8 bytes per word). The
// sender truncates to it and the receiver rejects anything longer before
// reading it.
const maxAbortWords = 512

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is one frame's fixed 40-byte prefix; see the package comment for
// the layout. Fields a frame type does not use travel as zero.
type header struct {
	typ    uint8
	status uint8
	narrow bool
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
	b[3] = 0
	if h.narrow {
		b[3] = flagNarrow
	}
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
		narrow: b[3]&flagNarrow != 0,
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

// wordBytes is the on-wire size of one payload word.
func (h *header) wordBytes() int64 {
	if h.narrow {
		return 4
	}
	return 8
}
