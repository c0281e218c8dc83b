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
// base, in 8 little-endian bytes, then every word minus the base packed
// at the run's width — the bit length of the run's range, 0 to 64, which
// the frame carries — word j in bits [j·w, (j+1)·w) of a little-endian
// body of ceil(w·n/8) bytes. A run of equal words is its base alone; an
// empty run is no bytes at width 0. Differences wrap modulo 2^64, so any
// run of int64s, MinInt64 and MaxInt64 together included, is exact at
// width 64.
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
	w := uint(bits.Len64(uint64(hi) - uint64(lo)))
	dst = slices.Grow(dst, 8+(len(words)*int(w)+7)/8)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	if w == 0 {
		return dst, 0
	}
	// acc holds the fill bits not yet written; a word that crosses a
	// 64-bit boundary leaves its high bits behind in the next acc (a
	// shift by 64 is 0 in Go, so a word that ends on the boundary leaves
	// none).
	var acc uint64
	var fill uint
	for _, v := range words {
		d := uint64(v) - uint64(lo)
		acc |= d << fill
		if fill += w; fill >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			fill -= 64
			acc = d >> (w - fill)
		}
	}
	for ; fill > 0; fill -= min(fill, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst, uint8(w)
}

// DecodeWords fills dst from raw, the bytes AppendWords wrote for len(dst)
// words at width; the caller has checked that width <= 64 and that raw
// holds exactly 8 + ceil(width·len(dst)/8) bytes, or none for an empty
// run. Each word is one 8-byte load at its bit offset, shifted and
// masked (and a ninth byte when it straddles the load), byte by byte for
// the words too close to raw's end for that, so nothing past raw is read.
// With atomicStores set the words land with atomic stores — a SharedArray
// window is concurrently read by its owner's threads through the
// runtime's atomic fast paths.
func DecodeWords(dst []int64, raw []byte, width uint8, atomicStores bool) {
	if len(dst) == 0 {
		return
	}
	base, body, w := binary.LittleEndian.Uint64(raw), raw[8:], uint(width)
	mask := uint64(1)<<w - 1 // all ones at width 64
	var off uint             // bit offset of word j
	for j := range dst {
		at, sh := int(off>>3), off&7
		var d uint64
		if at+8 <= len(body) {
			d = binary.LittleEndian.Uint64(body[at:]) >> sh
			if sh+w > 64 {
				d |= uint64(body[at+8]) << (64 - sh)
			}
		} else {
			for k := len(body) - 1; k >= at; k-- {
				d = d<<8 | uint64(body[k])
			}
			d >>= sh
		}
		off += w
		if v := int64(base + d&mask); atomicStores {
			atomic.StoreInt64(&dst[j], v)
		} else {
			dst[j] = v
		}
	}
}
