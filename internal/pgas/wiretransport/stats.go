package wiretransport

import (
	"fmt"
	"sync/atomic"
)

// counters are the transport's live wire counters: plain atomics bumped on
// the send and receive paths, always on. Frame and byte counts are indexed
// by frame type; bytes are payload bytes as they travel (base and words at
// the run's width), so bytes + headerLen×frames is what the sockets carried.
type counters struct {
	sentFrames, sentBytes [numFrameTypes]atomic.Uint64
	recvFrames, recvBytes [numFrameTypes]atomic.Uint64
	payloadSent           atomic.Uint64 // payload-carrying frames sent
	payloadWords          atomic.Uint64 // ... and the words they carried
	puts                  atomic.Uint64 // PUT frames that reached the wire
	putFlushes            atomic.Uint64 // flushes that carried at least one PUT
}

// FrameCount is one frame type's traffic in one direction.
type FrameCount struct {
	Type   string
	Frames uint64
	Bytes  uint64 // payload bytes; each frame adds a 40-byte header
}

// Stats is a snapshot of one endpoint's wire counters since Connect.
type Stats struct {
	// Sent and Recv hold one row per frame type, in protocol order.
	Sent, Recv []FrameCount
	// PayloadFrames counts sent frames that carried a payload and
	// PayloadWords the words in them: sent payload bytes / PayloadWords is
	// what a word cost on the wire, base included.
	PayloadFrames, PayloadWords uint64
	// Puts counts PUT frames flushed to the wire and PutFlushes the
	// flushes that carried them: Puts/PutFlushes is the coalescing ratio.
	Puts, PutFlushes uint64
	// Windows is the number of windows currently exposed.
	Windows int
}

// Stats snapshots the endpoint's counters. Each counter is read
// atomically; the snapshot as a whole is exact only while the mesh is
// quiescent (between regions).
func (t *Transport) Stats() Stats {
	c := &t.ctr
	s := Stats{
		PayloadFrames: c.payloadSent.Load(),
		PayloadWords:  c.payloadWords.Load(),
		Puts:          c.puts.Load(),
		PutFlushes:    c.putFlushes.Load(),
	}
	for typ := int(frHello); typ < numFrameTypes; typ++ {
		s.Sent = append(s.Sent, FrameCount{frameNames[typ], c.sentFrames[typ].Load(), c.sentBytes[typ].Load()})
		s.Recv = append(s.Recv, FrameCount{frameNames[typ], c.recvFrames[typ].Load(), c.recvBytes[typ].Load()})
	}
	s.Windows = t.Len()
	return s
}

func wireBytes(rows []FrameCount) (frames, bytes uint64) {
	for _, r := range rows {
		frames += r.Frames
		bytes += r.Bytes + headerLen*r.Frames
	}
	return frames, bytes
}

// SentWire returns the frames sent and the bytes they put on the sockets,
// headers included.
func (s Stats) SentWire() (frames, bytes uint64) { return wireBytes(s.Sent) }

// RecvWire is SentWire for the receive side.
func (s Stats) RecvWire() (frames, bytes uint64) { return wireBytes(s.Recv) }

// String is the one-line summary pgasnode prints at exit.
func (s Stats) String() string {
	sf, sb := s.SentWire()
	rf, rb := s.RecvWire()
	perWord, perFlush := 0.0, 0.0
	if s.PayloadWords > 0 {
		perWord = float64(sb-headerLen*sf) / float64(s.PayloadWords)
	}
	if s.PutFlushes > 0 {
		perFlush = float64(s.Puts) / float64(s.PutFlushes)
	}
	return fmt.Sprintf("sent %d B/%d frames, recv %d B/%d frames, %.2f B/word, %.1f puts/flush, %d windows",
		sb, sf, rb, rf, perWord, perFlush, s.Windows)
}
