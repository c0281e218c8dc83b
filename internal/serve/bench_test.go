package serve

import (
	"bytes"
	"testing"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/xrand"
)

// BenchmarkServeQueryBatch is the pgasd query path's cost per 128-lookup
// mixed batch, in its parts: Service.Query in-process on a batch it has not
// planned (two batches alternate, so every stream's plan rebuilds) and on
// the batch it planned last (plans re-execute), and the codec alone — one
// request and its answers through a Conn, framed, checksummed and decoded.
func BenchmarkServeQueryBatch(b *testing.B) {
	const n, lookups = 1 << 14, 128
	s, err := New(Config{Machine: testMachine(4, 2)}, graph.WithRandomWeights(graph.Hybrid(n, 4*n, 7), 8))
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []KernelSpec{
		{Kernel: "cc/coalesced"}, {Kernel: "bfs/coalesced", Src: 1},
		{Kernel: "sssp/delta-stepping", Src: 2}, {Kernel: "spanning-forest"},
	} {
		if _, err := s.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(9)
	var batches [2][]Query
	for j := range batches {
		for i := 0; i < lookups; i++ {
			u, v := rng.Int64n(n), rng.Int64n(n)
			q := Query{Op: Op(1 + i%4), U: u, V: v}
			if q.Op == Distance {
				q.U = int64(1 + i/4%2) // a resident source
			}
			batches[j] = append(batches[j], q)
		}
	}
	query := func(b *testing.B, stride int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(batches[i*stride%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("first", func(b *testing.B) { query(b, 1) })
	b.Run("repeat", func(b *testing.B) { query(b, 0) })

	ans, err := s.Query(batches[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		var wire bytes.Buffer
		c := NewConn(&wire)
		roundTrip := func(typ byte, v interface{}) []byte {
			if err := c.send(typ, v); err != nil {
				b.Fatal(err)
			}
			_, payload, err := c.read()
			if err != nil {
				b.Fatal(err)
			}
			return payload
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if qs, err := c.queries(roundTrip(FrameQuery, batches[0])); err != nil || len(qs) != lookups {
				b.Fatalf("%d lookups came back, err %v", len(qs), err)
			}
			if n, _, err := c.batch(roundTrip(FrameOK, ans), 1, false); err != nil || n != lookups {
				b.Fatalf("%d answers came back, err %v", n, err)
			}
		}
	})
}
