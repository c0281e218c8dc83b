package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// A span is one timed call into the program, recorded from outside it:
// name, start, end, the span that caused it, and the op it belongs to.
// Every duration the benchmark reports is taken through begin/end, so the
// traced and untraced passes time exactly the same intervals; with a nil
// recorder nothing is stored.

// noOp is the op id of spans outside the timed op sequence (set-up,
// probes).
const noOp = -1

// openSpan is a span that has begun. id 0 means "not recorded".
type openSpan struct {
	id, parent, op int
	name           string
	start          time.Time
}

// spanRecord is the file form of a finished span; times are nanoseconds
// since the recorder was created.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps finished spans in memory until writeFile. It is safe
// for concurrent use (cc-wire's node goroutines record their own spans).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  int
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (0 for a root). r may be nil.
func (r *recorder) begin(name string, op int, parent openSpan) openSpan {
	s := openSpan{parent: parent.id, op: op, name: name}
	if r != nil {
		r.mu.Lock()
		r.next++
		s.id = r.next
		r.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes s and returns its duration. r may be nil.
func (r *recorder) end(s openSpan) time.Duration {
	end := time.Now()
	if r != nil {
		r.mu.Lock()
		r.spans = append(r.spans, spanRecord{
			ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			StartNS: s.start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		})
		r.mu.Unlock()
	}
	return end.Sub(s.start)
}

// writeFile writes one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
