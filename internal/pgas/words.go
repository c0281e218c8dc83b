package pgas

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// The byte form of a run of shared-array words, shared by every framed
// protocol in the repository (the wire transport's payloads, pgasd's batch
// frames): little-endian, at a width chosen per run and carried by the
// frame — 4 bytes a word when every word round-trips through int32, 8
// otherwise.

// AppendWords appends words to dst at the narrowest width that carries
// them exactly. One out-of-range word — an Unreached sentinel, a packed
// key — keeps the whole run wide.
func AppendWords(dst []byte, words []int64) (out []byte, narrow bool) {
	narrow = true
	for _, v := range words {
		if int64(int32(v)) != v {
			narrow = false
			break
		}
	}
	width := 8
	if narrow {
		width = 4
	}
	at := len(dst)
	dst = slices.Grow(dst, width*len(words))[:at+width*len(words)]
	if body := dst[at:]; narrow {
		for j, v := range words {
			binary.LittleEndian.PutUint32(body[j*4:], uint32(v))
		}
	} else {
		for j, v := range words {
			binary.LittleEndian.PutUint64(body[j*8:], uint64(v))
		}
	}
	return dst, narrow
}

// DecodeWords fills dst from raw, which the caller has checked to hold
// len(dst) words at the stated width. With atomicStores set the words land
// with atomic stores — a SharedArray window is concurrently read by its
// owner's threads through the runtime's atomic fast paths.
func DecodeWords(dst []int64, raw []byte, narrow, atomicStores bool) {
	switch {
	case narrow && atomicStores:
		for j := range dst {
			atomic.StoreInt64(&dst[j], int64(int32(binary.LittleEndian.Uint32(raw[j*4:]))))
		}
	case narrow:
		for j := range dst {
			dst[j] = int64(int32(binary.LittleEndian.Uint32(raw[j*4:])))
		}
	case atomicStores:
		for j := range dst {
			atomic.StoreInt64(&dst[j], int64(binary.LittleEndian.Uint64(raw[j*8:])))
		}
	default:
		for j := range dst {
			dst[j] = int64(binary.LittleEndian.Uint64(raw[j*8:]))
		}
	}
}
