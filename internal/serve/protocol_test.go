package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sssp"
	"pgasgraph/internal/xrand"
)

// writeFrame writes one frame around payload as it is.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	return (&Conn{w: w}).send(typ, payload)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(&buf, FrameQuery, p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != FrameQuery || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: typ=%d len=%d, want typ=%d len=%d", i, typ, len(got), FrameQuery, len(p))
		}
	}
}

func TestFrameCorruptionClassifies(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameInfo, []byte(`{"queries":[]}`)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]func(b []byte){
		"flipped payload bit": func(b []byte) { b[headerSize] ^= 0x40 },
		"bad magic":           func(b []byte) { b[0] = 'X' },
		"bad checksum":        func(b []byte) { b[12] ^= 0xff },
	}
	for name, corrupt := range cases {
		b := frame()
		corrupt(b)
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, pgas.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Oversized announced length must fail before allocating the payload.
	b := frame()
	binary.LittleEndian.PutUint32(b[8:12], MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, pgas.ErrCorrupt) {
		t.Fatalf("oversized frame: err = %v, want ErrCorrupt", err)
	}

	// A wrong version is a hard protocol error, not silent corruption.
	b = frame()
	b[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestErrorClassRoundTrip(t *testing.T) {
	sentinels := []error{pgas.ErrTransport, pgas.ErrTimeout, pgas.ErrCorrupt, pgas.ErrMisuse, pgas.ErrEvicted}
	for _, s := range sentinels {
		orig := pgas.Errorf(s, 3, "op", "boom")
		resp := errorResp{Class: errorClass(orig), Msg: orig.Error()}
		back := resp.asError()
		if !errors.Is(back, s) {
			t.Fatalf("class %q did not round-trip: %v", resp.Class, back)
		}
	}
	unclassified := errorResp{Msg: "plain"}
	if err := unclassified.asError(); err == nil || errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unclassified error mis-restored: %v", err)
	}
}

// pipeTo serves one end of an in-memory pipe with srv and frames the other.
func pipeTo(t *testing.T, srv *Server) (net.Conn, *Conn) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go srv.handleConn(server)
	return client, NewConn(client)
}

// TestServerExchange drives a Server end-to-end over an in-memory pipe:
// load, run, query, insert, info — plus the not-loaded and unknown-frame
// error paths with classes preserved across the wire.
func TestServerExchange(t *testing.T) {
	srv := NewServer(func(g *graph.Graph) (*Service, error) {
		return New(Config{Machine: testMachine(2, 2)}, g)
	})
	_, client := pipeTo(t, srv)

	// Requests before a load are classified misuse, not crashes.
	var info InfoResp
	if err := client.Call(FrameInfo, struct{}{}, &info); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("pre-load info: err = %v, want ErrMisuse", err)
	}

	var load LoadResp
	if err := client.Call(FrameLoad,
		&LoadReq{Family: "random", N: 64, M: 48, Seed: 7}, &load); err != nil {
		t.Fatal(err)
	}
	if load.N != 64 || load.M != 48 {
		t.Fatalf("load = %+v", load)
	}

	var run RunResp
	if err := client.Call(FrameRun,
		&RunReq{Spec: KernelSpec{Kernel: "cc/coalesced"}}, &run); err != nil {
		t.Fatal(err)
	}
	g, _ := Generate(&LoadReq{Family: "random", N: 64, M: 48, Seed: 7})
	o := buildOracle(g)
	comps := map[int64]bool{}
	for _, l := range o.labels {
		comps[l] = true
	}
	if run.Components != int64(len(comps)) {
		t.Fatalf("components over wire = %d, oracle %d", run.Components, len(comps))
	}

	var ans []int64
	if err := client.Call(FrameQuery,
		[]Query{{Op: SameComponent, U: 0, V: 1}, {Op: ComponentSize, U: 0}}, &ans); err != nil {
		t.Fatal(err)
	}
	if want := []int64{b2i(o.labels[0] == o.labels[1]), o.sizes[o.labels[0]]}; !slices.Equal(ans, want) {
		t.Fatalf("answers = %v, want %v", ans, want)
	}

	var ins InsertReport
	if err := client.Call(FrameInsert, []Edge{{U: 0, V: 1}}, &ins); err != nil {
		t.Fatal(err)
	}
	if !ins.Incremental {
		t.Fatalf("insert fell back to recompute: %+v", ins)
	}
	if err := client.Call(FrameQuery, []Query{{Op: SameComponent, U: 0, V: 1}}, &ans); err != nil {
		t.Fatal(err)
	}
	if ans[0] != 1 {
		t.Fatal("vertices 0 and 1 not merged after inserting (0,1)")
	}

	if err := client.Call(FrameInfo, struct{}{}, &info); err != nil {
		t.Fatal(err)
	}
	if info.N != 64 || info.M != 49 || info.Threads != 4 || len(info.Kernels) == 0 {
		t.Fatalf("info = %+v", info)
	}

	// Unknown kernel and out-of-range query classify over the wire.
	if err := client.Call(FrameRun,
		&RunReq{Spec: KernelSpec{Kernel: "nope"}}, &run); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unknown kernel: err = %v, want ErrMisuse", err)
	}
	if err := client.Call(FrameQuery, []Query{{Op: ComponentSize, U: 9999}}, &ans); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("out-of-range query: err = %v, want ErrMisuse", err)
	}
	if err := client.Call(200, struct{}{}, &info); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unknown frame type: err = %v, want ErrMisuse", err)
	}
}

// TestHostileFramesAreAnsweredNotFatal: request frames that used to panic
// on the connection goroutine — with Server.mu held, so pgasd died — get a
// classified answer, and the same connection keeps serving. Load: sizes no
// simple graph has reached graph.Random's capacity panic. Run: a col that
// pinned anything but D[0] = 0 made GetD lie about a live label and
// cc/coalesced blew its iteration bound, which pgas.Recover re-raises.
func TestHostileFramesAreAnsweredNotFatal(t *testing.T) {
	srv := NewServer(func(g *graph.Graph) (*Service, error) {
		return New(Config{Machine: testMachine(2, 2)}, g)
	})
	raw, client := pipeTo(t, srv)

	// exchange sends one raw frame and requires the named answer, then an
	// Info round trip on the same connection.
	var info InfoResp
	exchange := func(name string, typ byte, payload string, misuse bool) {
		t.Helper()
		if err := writeFrame(raw, typ, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		rtyp, resp, err := client.read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if misuse {
			var e errorResp
			if rtyp != FrameError || json.Unmarshal(resp, &e) != nil || e.Class != "misuse" {
				t.Fatalf("%s: answered frame type %d %s, want FrameError class misuse", name, rtyp, resp)
			}
		} else if rtyp != FrameOK {
			t.Fatalf("%s: answered frame type %d %s, want FrameOK", name, rtyp, resp)
		}
		if err := client.Call(FrameInfo, struct{}{}, &info); err != nil {
			t.Fatalf("%s: server did not keep serving: %v", name, err)
		}
	}

	if err := client.Call(FrameLoad, &LoadReq{Family: "random", N: 64, M: 48, Seed: 7}, &LoadResp{}); err != nil {
		t.Fatal(err)
	}
	for _, size := range []string{
		`{"family":"random","n":4,"m":7}`,
		`{"family":"random","n":1,"m":5}`,
		`{"family":"hybrid","n":3,"m":9}`,
		`{"family":"hybrid","n":4,"m":7}`, // past Random's check this one never returned
		`{"family":"random","n":4294967296,"m":1}`,
		`{"family":"random","n":9223372036854775807,"m":9223372036854775807}`,
	} {
		exchange("load "+size, FrameLoad, size, true)
	}
	if info.N != 64 || info.M != 48 {
		t.Fatalf("a refused load replaced the resident graph: %+v", info)
	}
	exchange("run pinning D[5]", FrameRun, runWithPin(`"OffloadIndex":5,"OffloadValue":99`), true)
	// OffloadValue is no longer a field; encoding/json drops the name and
	// what is left is the sound pin.
	exchange("run naming OffloadValue", FrameRun, runWithPin(`"OffloadValue":7`), false)
}

// TestEveryRowOverAConnection: a FrameRun per registry name on a loaded
// (weighted) graph is answered on the connection that asked — FrameOK, or
// FrameError class misuse for the list kernels, whose input does not travel
// and which the Service has none of — and the connection serves the Info
// that follows. No row is a way to crash the server.
func TestEveryRowOverAConnection(t *testing.T) {
	srv := NewServer(func(g *graph.Graph) (*Service, error) {
		return New(Config{Machine: testMachine(2, 2)}, g)
	})
	_, client := pipeTo(t, srv)
	if err := client.Call(FrameLoad, &LoadReq{Family: "random", N: 64, M: 96, Seed: 5, Weighted: true}, &LoadResp{}); err != nil {
		t.Fatal(err)
	}
	var info InfoResp
	for _, name := range Kernels() {
		var run RunResp
		err := client.Call(FrameRun, &RunReq{Spec: KernelSpec{Kernel: name, Compact: true}}, &run)
		if list := TakesList(name); list != errors.Is(err, pgas.ErrMisuse) || (!list && err != nil) {
			t.Errorf("%s: answered %v; want misuse from the list kernels and OK from the rest", name, err)
		}
		if err == nil && (run.Kernel != name || run.SimMS <= 0) {
			t.Errorf("%s: answered %+v", name, run)
		}
		if err := client.Call(FrameInfo, struct{}{}, &info); err != nil {
			t.Fatalf("%s: server did not keep serving: %v", name, err)
		}
	}
	if want := []string{"labels", "sizes", "dist[0]", "parent"}; !slices.Equal(info.Resident, want) {
		t.Errorf("resident after every row = %v, want %v", info.Resident, want)
	}
}

// runWithPin is a Run payload for cc/coalesced whose col turns Offload on
// and carries pin verbatim — raw JSON, because the pairs that crashed
// pgasd name a field the Options struct no longer has.
func runWithPin(pin string) string {
	return `{"spec":{"kernel":"cc/coalesced","col":{"VirtualThreads":1,"Offload":true,` + pin + `}}}`
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(&LoadReq{Family: "noexist", N: 8, M: 4}); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("bad family: %v", err)
	}
	if _, err := Generate(&LoadReq{Family: "random", N: 0, M: 4}); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("bad size: %v", err)
	}
	g, err := Generate(&LoadReq{Family: "hybrid", N: 32, M: 64, Seed: 1, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weighted load produced unweighted graph")
	}
}

// loopback is a Conn whose frames land in a buffer it then reads back.
func loopback() *Conn {
	var buf bytes.Buffer
	return NewConn(&buf)
}

// TestBatchCodecRoundTrip: every batch comes back as it went out, in
// exactly 8 header bytes, n op bytes for lookups, and (n > 0) an 8-byte
// base and k·n words packed at the bit width the batch's range needs —
// equal words, ranges on both sides of 2^32, negative ids, Unreached
// answers, empty, one-lookup and 65 536-lookup batches, weighted and
// unweighted edges, and random batches of random widths. Protocol 2
// pinned 4 or 8 bytes a word and no base; protocol 3 took whole bytes, so
// the one-lookup batch shrinks from 8 to 3 bits a word, the small-edge
// batches from 8 to 6 and 2^32 from 40 to 33.
func TestBatchCodecRoundTrip(t *testing.T) {
	c := loopback()
	roundTrip := func(name string, typ byte, v interface{}, n, k int, width byte) []byte {
		t.Helper()
		if err := c.send(typ, v); err != nil {
			t.Fatal(err)
		}
		rtyp, payload, err := c.read()
		if err != nil || rtyp != typ {
			t.Fatalf("read back frame type %d, err %v; sent type %d", rtyp, err, typ)
		}
		want := batchHeader
		if typ == FrameQuery {
			want += n
		}
		if n > 0 {
			want += 8 + (k*n*int(width)+7)/8
		}
		if payload[4] != width || len(payload) != want {
			t.Fatalf("%s: %d bytes at width %d, want %d at width %d", name, len(payload), payload[4], want, width)
		}
		return payload
	}
	queries := func(name string, qs []Query, width byte) {
		t.Helper()
		got, err := c.queries(roundTrip(name, FrameQuery, qs, len(qs), 2, width))
		if err != nil || !slices.Equal(got, qs) {
			t.Fatalf("%s: %d lookups came back as %d, err %v", name, len(qs), len(got), err)
		}
	}
	queries("empty", []Query{}, 0)
	queries("equal", []Query{{Op: SameComponent, U: 5, V: 5}, {Op: Distance, U: 5, V: 5}}, 0)
	queries("one", []Query{{Op: ComponentSize, U: 7}}, 3)
	queries("max32", []Query{{Op: SameComponent, U: math.MaxInt32, V: math.MinInt32}}, 32)
	queries("max32+1", []Query{{Op: SameComponent, U: 1, V: 2}, {Op: Distance, U: math.MaxInt32 + 1, V: 0}}, 32)
	queries("min32-1", []Query{{Op: TreeParent, U: math.MinInt32 - 1}}, 32)
	queries("2^32", []Query{{Op: TreeParent, U: 1 << 32}}, 33)
	queries("negative ids and bad ops", []Query{{Op: 0, U: -1, V: -2}, {Op: 255, U: -3}}, 2)
	big := make([]Query, 65536)
	for i := range big {
		big[i] = Query{Op: Op(1 + i%4), U: int64(i), V: int64(65535 - i)}
	}
	queries("65536 lookups", big, 16)

	answers := func(name string, ans []int64, width byte) {
		t.Helper()
		_, _, err := c.batch(roundTrip(name, FrameOK, ans, len(ans), 1, width), 1, false)
		if got := c.words; err != nil || !slices.Equal(got, ans) {
			t.Fatalf("%s: %v came back as %v, err %v", name, ans, got, err)
		}
	}
	answers("empty", []int64{}, 0)
	answers("int32", []int64{1, 0, -1, math.MaxInt32}, 32)
	answers("bfs unreached", []int64{3, bfs.Unreached, 4}, 63)
	answers("sssp unreached", []int64{sssp.Unreached}, 0)
	answers("extremes", []int64{math.MinInt64, sssp.Unreached, -1}, 64)

	edges := func(name string, es []Edge, width byte) {
		t.Helper()
		got, err := c.edges(roundTrip(name, FrameInsert, es, len(es), 3, width))
		if err != nil || !slices.Equal(got, es) {
			t.Fatalf("%s: %v came back as %v, err %v", name, es, got, err)
		}
	}
	edges("empty", []Edge{}, 0)
	edges("unweighted", []Edge{{U: 3, V: 60}, {U: 60, V: 9}}, 6)
	edges("weighted", []Edge{{U: 3, V: 60}, {U: 60, V: 9, W: 4}}, 6)
	edges("heavy", []Edge{{U: 1, V: 2, W: math.MaxUint32}}, 32)
	edges("wide ids", []Edge{{U: -1 << 40, V: 1 << 40}}, 42)

	rng := xrand.New(0xc0dec)
	for trial := 0; trial < 200; trial++ {
		span := int64(1) << (1 + rng.Intn(40)) // ids up to 2^40: widths 1 to 41 come up
		qs := make([]Query, rng.Intn(300))
		for i := range qs {
			qs[i] = Query{Op: Op(rng.Intn(6)), U: rng.Int64n(span) - span/2, V: rng.Int64n(span) - span/2}
		}
		if err := c.send(FrameQuery, qs); err != nil {
			t.Fatal(err)
		}
		_, payload, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.queries(payload); err != nil || !slices.Equal(got, qs) {
			t.Fatalf("trial %d: %d random lookups below 2^%d did not round-trip: %v", trial, len(qs), span, err)
		}
	}
}

// TestBatchDecoderRefuses: a batch payload whose claims its bytes do not
// back is pgas.ErrCorrupt before anything is sized from it, what only the
// Service can judge (an op outside 1..4, an id out of range) is
// pgas.ErrMisuse from route, and version 1 — header or body — is refused.
func TestBatchDecoderRefuses(t *testing.T) {
	c := loopback()
	good := func(typ byte, v interface{}) []byte {
		t.Helper()
		if err := c.send(typ, v); err != nil {
			t.Fatal(err)
		}
		_, payload, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(payload)
	}
	query := good(FrameQuery, []Query{{Op: SameComponent, U: 1, V: 2}, {Op: ComponentSize, U: 3}})
	weighted := good(FrameInsert, []Edge{{U: 1, V: 2, W: 3}})
	patch := func(b []byte, at int, v byte) []byte {
		b = slices.Clone(b)
		b[at] = v
		return b
	}
	huge := slices.Clone(query)
	binary.LittleEndian.PutUint32(huge, math.MaxUint32) // 2^32-1 lookups in 22 bytes
	// One edge whose weight, 2^32, is no uint32.
	negative, width := pgas.AppendWords(slices.Clone(weighted[:batchHeader]), []int64{1, 2, 1 << 32})
	negative[4] = width
	width65 := append(patch(query, 4, 65)[:batchHeader+2+8], make([]byte, (2*2*65+7)/8)...) // sized as if 65 bits a word held
	empty := good(FrameQuery, []Query{})
	for name, tc := range map[string]struct {
		decode  func([]byte) error
		payload []byte
	}{
		"no header":         {func(b []byte) error { _, err := c.queries(b); return err }, query[:batchHeader-1]},
		"missing byte":      {func(b []byte) error { _, err := c.queries(b); return err }, query[:len(query)-1]},
		"trailing byte":     {func(b []byte) error { _, err := c.queries(b); return err }, append(slices.Clone(query), 0)},
		"count past bytes":  {func(b []byte) error { _, err := c.queries(b); return err }, huge},
		"width 5":           {func(b []byte) error { _, err := c.queries(b); return err }, patch(query, 4, 5)},
		"width 8 claimed":   {func(b []byte) error { _, err := c.queries(b); return err }, patch(query, 4, 8)},
		"width 65":          {func(b []byte) error { _, err := c.queries(b); return err }, width65},
		"width, no items":   {func(b []byte) error { _, err := c.queries(b); return err }, patch(empty, 4, 1)},
		"three columns":     {func(b []byte) error { _, err := c.queries(b); return err }, patch(query, 5, 3)},
		"two edge columns":  {func(b []byte) error { _, err := c.edges(b); return err }, patch(weighted[:len(weighted)-1], 5, 2)},
		"reserved set":      {func(b []byte) error { _, err := c.queries(b); return err }, patch(query, 7, 1)},
		"edges as queries":  {func(b []byte) error { _, err := c.queries(b); return err }, weighted},
		"queries as edges":  {func(b []byte) error { _, err := c.edges(b); return err }, query},
		"four edge columns": {func(b []byte) error { _, err := c.edges(b); return err }, patch(weighted, 5, 4)},
		"weight 2^32":       {func(b []byte) error { _, err := c.edges(b); return err }, negative},
		"answers, 3 cols":   {func(b []byte) error { _, _, err := c.batch(b, 1, false); return err }, weighted},
		"version 1 body":    {func(b []byte) error { _, err := c.queries(b); return err }, []byte(`{"queries":[{"op":1,"u":1,"v":2}]}`)},
	} {
		if err := tc.decode(tc.payload); !errors.Is(err, pgas.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Through a served connection: the JSON body and the hand-built v1
	// header are refused by name, a bad op and a bad id by route.
	srv := NewServer(func(g *graph.Graph) (*Service, error) {
		return New(Config{Machine: testMachine(2, 2)}, g)
	})
	raw, client := pipeTo(t, srv)
	if err := client.Call(FrameLoad, &LoadReq{Family: "random", N: 64, M: 48, Seed: 7}, &LoadResp{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(FrameRun, &RunReq{Spec: KernelSpec{Kernel: "cc/coalesced"}}, &RunResp{}); err != nil {
		t.Fatal(err)
	}
	var ans []int64
	if err := client.Call(FrameQuery, &QueryReq{Queries: []Query{{Op: SameComponent, U: 0, V: 1}}}, &ans); !errors.Is(err, pgas.ErrCorrupt) {
		t.Errorf("JSON-bodied FrameQuery: err = %v, want ErrCorrupt", err)
	}
	for name, qs := range map[string][]Query{
		"op 0": {{Op: 0, U: 1}}, "op 5": {{Op: 5, U: 1}}, "id 64": {{Op: ComponentSize, U: 64}}, "id -1": {{Op: SameComponent, U: 0, V: -1}},
	} {
		if err := client.Call(FrameQuery, qs, &ans); !errors.Is(err, pgas.ErrMisuse) {
			t.Errorf("%s: err = %v, want ErrMisuse", name, err)
		}
	}
	if err := client.Call(FrameInsert, []Edge{{U: 0, V: 64}}, &InsertReport{}); !errors.Is(err, pgas.ErrMisuse) {
		t.Errorf("edge to vertex 64: err = %v, want ErrMisuse", err)
	}
	v1 := []byte("pgsd\x01\x05\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00{}") // version 1 FrameInfo
	binary.LittleEndian.PutUint32(v1[12:16], crc32.Checksum(v1[headerSize:], castagnoli))
	go raw.Write(v1) // the pipe is synchronous: the refusal is read below
	rtyp, payload, err := client.read()
	if err != nil || rtyp != FrameError {
		t.Fatalf("a version-1 frame was answered with frame type %d, err %v; want FrameError", rtyp, err)
	}
	if msg := string(payload); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 4") {
		t.Fatalf("a version-1 frame was answered %s, want a refusal naming versions 1 and 4", msg)
	}
}
