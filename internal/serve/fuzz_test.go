package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"pgasgraph/internal/graph"
)

// fuzzServer is a Server over a fresh 64-vertex service with every kind of
// result resident. One per dispatched frame: a crasher must reproduce from
// its input alone, not from the inserts and plans of earlier inputs.
func fuzzServer(t *testing.T) *Server {
	t.Helper()
	return &Server{
		mk: func(g *graph.Graph) (*Service, error) { return New(Config{Machine: testMachine(2, 2)}, g) },
		svc: preloaded(t, graph.Random(64, 96, 5),
			KernelSpec{Kernel: "cc/coalesced"},
			KernelSpec{Kernel: "bfs/coalesced", Src: 0},
			KernelSpec{Kernel: "spanning-forest"}),
	}
}

// FuzzServeFrame: arbitrary bytes at pgasd's front door never panic the
// frame reader and never get a payload past MaxFrame out of it; whatever
// frame comes out is answered — FrameOK, or FrameError with a class from
// the taxonomy — never with a panic. A Load's sizes are clamped to 256
// (memory and time are an operator's to spend; which sizes are feasible
// below that is the server's to check). A mutated frame almost never
// carries a matching checksum, so one that fails is tried again with its
// length and CRC fields made right, which is what lets the fuzzer reach
// the payload decoders and the dispatch behind them.
func FuzzServeFrame(f *testing.F) {
	// frame encodes v as the client and server do: batches binary, the
	// rest JSON.
	frame := func(typ byte, v interface{}) []byte {
		var buf bytes.Buffer
		if err := (&Conn{w: &buf}).send(typ, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	lookups := []Query{
		{Op: SameComponent, U: 1, V: 63}, {Op: ComponentSize, U: 7},
		{Op: Distance, U: 0, V: 40}, {Op: TreeParent, U: 12},
	}
	query := frame(FrameQuery, lookups)
	f.Add(frame(FrameLoad, &LoadReq{Family: "random", N: 64, M: 96, Seed: 5}))
	f.Add(frame(FrameLoad, &LoadReq{Family: "random", N: 4, M: 7}))
	f.Add(frame(FrameLoad, &LoadReq{Family: "hybrid", N: 3, M: 9}))
	f.Add(frame(FrameRun, &RunReq{Spec: KernelSpec{Kernel: "cc/fastsv", Compact: true}}))
	for _, row := range []string{"cc/merge-cgm", "cc/naive", "listrank/wyllie", "listrank/cgm", "bfs/coalesced", "sssp/delta-stepping", "mst/coalesced"} {
		f.Add(frame(FrameRun, &RunReq{Spec: KernelSpec{Kernel: row, Src: 3}}))
	}
	for _, pin := range []string{`"OffloadValue":7`, `"OffloadIndex":5,"OffloadValue":99`} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameRun, []byte(runWithPin(pin))); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(query)
	f.Add(frame(FrameInsert, []Edge{{U: 3, V: 60}, {U: 60, V: 9, W: 4}}))
	f.Add(frame(FrameInfo, struct{}{}))
	f.Add(frame(FrameOK, []int64{1, 0, -1}))
	f.Add(frame(FrameError, &errorResp{Class: "misuse", Msg: "no"}))
	f.Add(query[:headerSize-3]) // truncated header
	corrupt := func(at int, v byte) []byte {
		b := slices.Clone(query)
		b[at] = v
		return b
	}
	f.Add(corrupt(0, 'X'))     // wrong magic
	f.Add(corrupt(11, 0x7f))   // announces ~2 GiB, over MaxFrame
	f.Add(corrupt(12, 0xff))   // bad CRC
	f.Add(corrupt(5, FrameOK)) // a response where a request belongs
	// Version 1's JSON body in a sealed FrameQuery: TestBatchDecoderRefuses
	// pins its answer, FrameError class corrupt.
	var v1 bytes.Buffer
	if err := WriteMsg(&v1, FrameQuery, &QueryReq{Queries: lookups}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(frame(FrameQuery, []Query{{Op: Distance, U: 1 << 40, V: -3}})) // width 41
	f.Add(frame(FrameInsert, []Edge{{U: 5, V: 6}}))                      // two columns
	// The batch codec at widths 0, 21 and 64, and a width no run has: 65,
	// refused as corrupt once resealed.
	f.Add(frame(FrameQuery, []Query{{Op: SameComponent, U: 9, V: 9}}))
	f.Add(frame(FrameQuery, []Query{{Op: ComponentSize, U: 1 << 20}}))
	f.Add(frame(FrameOK, []int64{3, math.MaxInt64, -1}))
	f.Add(corrupt(headerSize+4, 65))

	known := map[string]bool{}
	for _, c := range classes {
		known[c.name] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil && len(data) >= headerSize {
			sealed := slices.Clone(data)
			binary.LittleEndian.PutUint32(sealed[8:12], uint32(len(data)-headerSize))
			binary.LittleEndian.PutUint32(sealed[12:16], crc32.Checksum(data[headerSize:], castagnoli))
			typ, payload, err = ReadFrame(bytes.NewReader(sealed))
		}
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("ReadFrame returned a %d-byte payload, MaxFrame is %d", len(payload), MaxFrame)
		}
		if typ == FrameLoad {
			var req LoadReq
			if json.Unmarshal(payload, &req) == nil {
				req.N, req.M = min(req.N, 256), min(req.M, 256)
				payload, _ = json.Marshal(&req)
			}
		}
		respType, resp := fuzzServer(t).dispatch(new(Conn), typ, payload)
		switch respType {
		case FrameOK:
		case FrameError:
			if e := resp.(*errorResp); !known[e.Class] {
				t.Fatalf("frame type %d, payload %q: unclassified error %q (class %q)", typ, payload, e.Msg, e.Class)
			}
		default:
			t.Fatalf("frame type %d answered with frame type %d", typ, respType)
		}
	})
}
