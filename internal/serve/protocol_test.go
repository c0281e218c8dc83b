package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"testing"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameQuery, p); err != nil {
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
		if err := WriteFrame(&buf, FrameInfo, []byte(`{"queries":[]}`)); err != nil {
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
		resp := ErrorResp{Class: ErrorClass(orig), Msg: orig.Error()}
		back := resp.AsError()
		if !errors.Is(back, s) {
			t.Fatalf("class %q did not round-trip: %v", resp.Class, back)
		}
	}
	unclassified := ErrorResp{Msg: "plain"}
	if err := unclassified.AsError(); err == nil || errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unclassified error mis-restored: %v", err)
	}
}

// request is a test helper speaking one request/response exchange.
func request(t *testing.T, conn net.Conn, typ byte, req, resp interface{}) error {
	t.Helper()
	if err := WriteMsg(conn, typ, req); err != nil {
		t.Fatal(err)
	}
	rtyp, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rtyp == FrameError {
		var e ErrorResp
		if err := unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		return e.AsError()
	}
	if err := unmarshal(payload, resp); err != nil {
		t.Fatal(err)
	}
	return nil
}

// TestServerExchange drives a Server end-to-end over an in-memory pipe:
// load, run, query, insert, info — plus the not-loaded and unknown-frame
// error paths with classes preserved across the wire.
func TestServerExchange(t *testing.T) {
	srv := NewServer(func(g *graph.Graph) (*Service, error) {
		return New(Config{Machine: testMachine(2, 2)}, g)
	})
	client, server := net.Pipe()
	defer client.Close()
	go srv.handleConn(server)

	// Requests before a load are classified misuse, not crashes.
	var info InfoResp
	if err := request(t, client, FrameInfo, struct{}{}, &info); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("pre-load info: err = %v, want ErrMisuse", err)
	}

	var load LoadResp
	if err := request(t, client, FrameLoad,
		&LoadReq{Family: "random", N: 64, M: 48, Seed: 7}, &load); err != nil {
		t.Fatal(err)
	}
	if load.N != 64 || load.M != 48 {
		t.Fatalf("load = %+v", load)
	}

	var run RunResp
	if err := request(t, client, FrameRun,
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

	var q QueryResp
	if err := request(t, client, FrameQuery,
		&QueryReq{Queries: []Query{{Op: SameComponent, U: 0, V: 1}, {Op: ComponentSize, U: 0}}}, &q); err != nil {
		t.Fatal(err)
	}
	want := []int64{b2i(o.labels[0] == o.labels[1]), o.sizes[o.labels[0]]}
	if len(q.Answers) != 2 || q.Answers[0] != want[0] || q.Answers[1] != want[1] {
		t.Fatalf("answers = %v, want %v", q.Answers, want)
	}

	var ins InsertResp
	if err := request(t, client, FrameInsert,
		&InsertReq{Edges: []Edge{{U: 0, V: 1}}}, &ins); err != nil {
		t.Fatal(err)
	}
	if !ins.Incremental {
		t.Fatalf("insert fell back to recompute: %+v", ins)
	}
	if err := request(t, client, FrameQuery,
		&QueryReq{Queries: []Query{{Op: SameComponent, U: 0, V: 1}}}, &q); err != nil {
		t.Fatal(err)
	}
	if q.Answers[0] != 1 {
		t.Fatal("vertices 0 and 1 not merged after inserting (0,1)")
	}

	if err := request(t, client, FrameInfo, struct{}{}, &info); err != nil {
		t.Fatal(err)
	}
	if info.N != 64 || info.M != 49 || info.Threads != 4 || len(info.Kernels) == 0 {
		t.Fatalf("info = %+v", info)
	}

	// Unknown kernel and out-of-range query classify over the wire.
	if err := request(t, client, FrameRun,
		&RunReq{Spec: KernelSpec{Kernel: "nope"}}, &run); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("unknown kernel: err = %v, want ErrMisuse", err)
	}
	if err := request(t, client, FrameQuery,
		&QueryReq{Queries: []Query{{Op: ComponentSize, U: 9999}}}, &q); !errors.Is(err, pgas.ErrMisuse) {
		t.Fatalf("out-of-range query: err = %v, want ErrMisuse", err)
	}
	if err := request(t, client, 200, struct{}{}, &info); !errors.Is(err, pgas.ErrMisuse) {
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
	client, server := net.Pipe()
	defer client.Close()
	go srv.handleConn(server)

	// exchange sends one raw frame and requires the named answer, then an
	// Info round trip on the same connection.
	var info InfoResp
	exchange := func(name string, typ byte, payload string, misuse bool) {
		t.Helper()
		if err := WriteFrame(client, typ, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		rtyp, resp, err := ReadFrame(client)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if misuse {
			var e ErrorResp
			if rtyp != FrameError || json.Unmarshal(resp, &e) != nil || e.Class != "misuse" {
				t.Fatalf("%s: answered frame type %d %s, want FrameError class misuse", name, rtyp, resp)
			}
		} else if rtyp != FrameOK {
			t.Fatalf("%s: answered frame type %d %s, want FrameOK", name, rtyp, resp)
		}
		if err := request(t, client, FrameInfo, struct{}{}, &info); err != nil {
			t.Fatalf("%s: server did not keep serving: %v", name, err)
		}
	}

	if err := request(t, client, FrameLoad, &LoadReq{Family: "random", N: 64, M: 48, Seed: 7}, &LoadResp{}); err != nil {
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
	client, server := net.Pipe()
	defer client.Close()
	go srv.handleConn(server)
	if err := request(t, client, FrameLoad, &LoadReq{Family: "random", N: 64, M: 96, Seed: 5, Weighted: true}, &LoadResp{}); err != nil {
		t.Fatal(err)
	}
	var info InfoResp
	for _, name := range Kernels() {
		var run RunResp
		err := request(t, client, FrameRun, &RunReq{Spec: KernelSpec{Kernel: name, Compact: true}}, &run)
		if list := TakesList(name); list != errors.Is(err, pgas.ErrMisuse) || (!list && err != nil) {
			t.Errorf("%s: answered %v; want misuse from the list kernels and OK from the rest", name, err)
		}
		if err == nil && (run.Kernel != name || run.SimMS <= 0) {
			t.Errorf("%s: answered %+v", name, run)
		}
		if err := request(t, client, FrameInfo, struct{}{}, &info); err != nil {
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
