package pgas

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync/atomic"
)

// The byte form of a run of shared-array words, shared by every framed
// protocol in the repository (the wire transport's payloads, pgasd's batch
// frames): frame of reference. A non-empty run travels as its minimum, the
// base, in 8 little-endian bytes, then every word minus the base,
// little-endian, in the fewest whole bytes that hold the run's range — the
// run's width, 0 to 8, which the frame carries. A run of equal words is its
// base alone; an empty run is no bytes at width 0. Differences wrap modulo
// 2^64, so any run of int64s, MinInt64 and MaxInt64 together included, is
// exact at width 8.
//
// The range, not the magnitude, sets the width: an owner-grouped index
// segment addresses one owner block, late rounds carry runs of one root,
// and one Unreached sentinel widens only the run it is in.

// AppendWords appends words to dst as base and body at the narrowest width
// that carries the run's range, and returns that width.
func AppendWords(dst []byte, words []int64) (out []byte, width uint8) {
	if len(words) == 0 {
		return dst, 0
	}
	lo, hi := words[0], words[0]
	for _, v := range words[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	at := len(dst)
	end := at + 8 + w*len(words)
	// Every word is one 8-byte store at stride width: its high bytes are
	// zero, the next word's store overwrites them, and the last one's land
	// in 7 bytes of slack past end.
	dst = slices.Grow(dst, end+7-at)[:end+7]
	binary.LittleEndian.PutUint64(dst[at:], uint64(lo))
	if w > 0 {
		body := dst[at+8:]
		for j, v := range words {
			binary.LittleEndian.PutUint64(body[j*w:], uint64(v)-uint64(lo))
		}
	}
	return dst[:end], uint8(w)
}

// DecodeWords fills dst from raw, the bytes AppendWords wrote for len(dst)
// words at width; the caller has checked that raw holds exactly 8 +
// width·len(dst) bytes, or none for an empty run. Each word is one masked
// 8-byte load at stride width, byte by byte for the words too close to
// raw's end for that, so nothing past raw is read. With atomicStores set
// the words land with atomic stores — a SharedArray window is concurrently
// read by its owner's threads through the runtime's atomic fast paths.
func DecodeWords(dst []int64, raw []byte, width uint8, atomicStores bool) {
	if len(dst) == 0 {
		return
	}
	base, body, w := binary.LittleEndian.Uint64(raw), raw[8:], int(width)
	mask := uint64(1)<<(8*w) - 1 // all ones at width 8
	for j := range dst {
		var d uint64
		if at := j * w; at+8 <= len(body) {
			d = binary.LittleEndian.Uint64(body[at:]) & mask
		} else {
			for k := w - 1; k >= 0; k-- {
				d = d<<8 | uint64(body[at+k])
			}
		}
		if v := int64(base + d); atomicStores {
			atomic.StoreInt64(&dst[j], v)
		} else {
			dst[j] = v
		}
	}
}
