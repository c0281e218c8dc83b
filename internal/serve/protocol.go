package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"pgasgraph/internal/pgas"
)

// The pgasd request protocol: length-prefixed frames over a unix socket,
// following the wiretransport conventions — little-endian fixed header,
// CRC-32C (Castagnoli) payload checksum, fail-fast on any malformed
// frame. Bulk data stays resident server-side; what travels per request is
// a batch, and the batch frames (FrameQuery and its FrameOK answer,
// FrameInsert) carry it in the binary layout below. Every other payload —
// Load, Run, Info, InsertResp, Error — is JSON.
//
// Frame layout (16-byte header, then payload):
//
//	off size  field
//	0   4     magic "pgsd"
//	4   1     protocol version (4)
//	5   1     frame type
//	6   2     reserved (0)
//	8   4     payload length (bytes)
//	12  4     CRC-32C of payload
//
// Batch payload: n items as k columns of words, column-major, all k·n
// words one run in pgas.AppendWords' form — the run's minimum as a base,
// then every word minus it packed at the bit width the run's range needs.
//
//	off size   field
//	0   4      n
//	4   1      word width w: 0 to 64 bits
//	5   1      columns k: 2 (lookups' U, V), 3 (edges' U, V, W), 1 (answers)
//	6   2      reserved (0)
//	8   n      one op byte per lookup — FrameQuery only
//	..  8      base — when n > 0
//	..  ceil(k·n·w/8)  the columns
const (
	protoMagic   = "pgsd"
	protoVersion = 4
	headerSize   = 16
	batchHeader  = 8
	// MaxFrame bounds a frame's payload; a larger announced length is a
	// corrupt or hostile stream and fails fast.
	MaxFrame = 16 << 20
)

// Frame types. Every request frame is answered with exactly one response
// frame: FrameOK carrying the matching response on success, FrameError on
// failure.
const (
	FrameLoad byte = iota + 1
	FrameRun
	FrameQuery
	FrameInsert
	FrameInfo
	FrameOK
	FrameError
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads one frame, validating magic, version, length bound, and
// checksum. A failed checksum classifies as pgas.ErrCorrupt.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrame(r, nil)
}

// readFrame is ReadFrame into buf, regrown when the frame needs more; the
// payload returned aliases it.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	h := slices.Grow(buf[:0], headerSize)[:headerSize]
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, nil, err
	}
	if string(h[0:4]) != protoMagic {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame", "bad magic %q", h[0:4])
	}
	if h[4] != protoVersion {
		return 0, nil, fmt.Errorf("pgasd: peer speaks protocol version %d, this side version %d", h[4], protoVersion)
	}
	typ = h[5]
	n, sum := binary.LittleEndian.Uint32(h[8:12]), binary.LittleEndian.Uint32(h[12:16])
	if n > MaxFrame {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame",
			"announced payload %d exceeds %d", n, MaxFrame)
	}
	payload = slices.Grow(h[:0], int(n))[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.frame",
			"payload checksum %#x, header says %#x", got, sum)
	}
	return typ, payload, nil
}

// WriteMsg marshals v as JSON and writes it as one frame of the given type.
func WriteMsg(w io.Writer, typ byte, v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return (&Conn{w: w}).send(typ, payload)
}

// Conn frames one connection: reads go through a bufio.Reader and every
// frame leaves in one Write from a buffer the connection keeps, so a frame
// is one syscall each way. Like the protocol it is strictly
// request/response and not goroutine-safe.
type Conn struct {
	w     io.Writer
	br    *bufio.Reader
	out   []byte  // the frame being sent
	in    []byte  // the last payload read; valid until the next read
	words []int64 // a batch's columns on their way in or out
}

// NewConn frames rw.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{w: rw, br: bufio.NewReader(rw)} }

// send writes one frame carrying v, whose type names its encoding: the
// three batch types travel in the batch layout, bytes as they are, anything
// else as JSON.
func (c *Conn) send(typ byte, v interface{}) (err error) {
	c.out = append(append(c.out[:0], protoMagic...), protoVersion, typ, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	switch v := v.(type) {
	case []Query:
		c.beginBatch(len(v), 2)
		for i, q := range v {
			c.out = append(c.out, byte(q.Op))
			c.words[i], c.words[len(v)+i] = q.U, q.V
		}
		c.endBatch(c.words)
	case []Edge:
		c.beginBatch(len(v), 3)
		for i, e := range v {
			c.words[i], c.words[len(v)+i], c.words[2*len(v)+i] = e.U, e.V, int64(e.W)
		}
		c.endBatch(c.words)
	case []int64:
		c.beginBatch(len(v), 1)
		c.endBatch(v)
	case []byte:
		c.out = append(c.out, v...)
	default:
		payload, err := json.Marshal(v)
		if err != nil {
			return err
		}
		c.out = append(c.out, payload...)
	}
	payload := c.out[headerSize:]
	if len(payload) > MaxFrame {
		return fmt.Errorf("pgasd: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(c.out[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.out[12:16], crc32.Checksum(payload, castagnoli))
	_, err = c.w.Write(c.out)
	return err
}

// beginBatch opens a batch payload in c.out and sizes c.words for its
// columns; endBatch closes it with them and the width they took.
func (c *Conn) beginBatch(n, k int) {
	c.out = append(binary.LittleEndian.AppendUint32(c.out, uint32(n)), 0, byte(k), 0, 0)
	c.words = slices.Grow(c.words[:0], k*n)[:k*n]
}

func (c *Conn) endBatch(words []int64) {
	var width uint8
	c.out, width = pgas.AppendWords(c.out, words)
	c.out[headerSize+4] = width
}

// read reads one frame into the connection's buffer.
func (c *Conn) read() (typ byte, payload []byte, err error) {
	typ, c.in, err = readFrame(c.br, c.in)
	return typ, c.in, err
}

// batch validates a batch payload of k word columns, with op bytes or
// without, and decodes the columns into c.words. Nothing is sized from the
// payload's own claims before they are checked against its length: a count
// the bytes do not back is corrupt, and so are trailing bytes.
func (c *Conn) batch(payload []byte, k int, ops bool) (n int, opBytes []byte, err error) {
	if len(payload) < batchHeader {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.batch",
			"%d-byte payload is shorter than a batch header", len(payload))
	}
	count, w := uint64(binary.LittleEndian.Uint32(payload)), uint64(payload[4])
	want := uint64(batchHeader)
	if ops {
		want += count
	}
	if count > 0 {
		want += 8 + (uint64(k)*count*w+7)/8
	}
	if w > 64 || (w != 0 && count == 0) || int(payload[5]) != k || payload[6] != 0 || payload[7] != 0 || uint64(len(payload)) != want {
		return 0, nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.batch",
			"header % x on %d bytes: want %d columns of 0- to 64-bit words (0 when empty), reserved 0, and %d bytes",
			payload[:batchHeader], len(payload), k, want)
	}
	n = int(count)
	body := payload[batchHeader:]
	if ops {
		opBytes, body = body[:n], body[n:]
	}
	c.words = slices.Grow(c.words[:0], k*n)[:k*n]
	pgas.DecodeWords(c.words, body, uint8(w), false)
	return n, opBytes, nil
}

// queries decodes a FrameQuery payload.
func (c *Conn) queries(payload []byte) ([]Query, error) {
	n, ops, err := c.batch(payload, 2, true)
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Op: Op(ops[i]), U: c.words[i], V: c.words[n+i]}
	}
	return qs, err
}

// edges decodes a FrameInsert payload.
func (c *Conn) edges(payload []byte) ([]Edge, error) {
	n, _, err := c.batch(payload, 3, false)
	es := make([]Edge, n)
	for i := range es {
		w := c.words[2*n+i]
		if w != int64(uint32(w)) {
			return nil, pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd.batch", "edge %d: weight %d is not a uint32", i, w)
		}
		es[i] = Edge{U: c.words[i], V: c.words[n+i], W: uint32(w)}
	}
	return es, err
}

// Call performs one request/response exchange: the client half of the
// protocol. A []Query or []Edge request travels as a batch and a *[]int64
// response is read as one; everything else is JSON both ways. A FrameError
// response is reconstructed with its error class intact.
func (c *Conn) Call(typ byte, req, resp interface{}) error {
	if err := c.send(typ, req); err != nil {
		return err
	}
	rtyp, payload, err := c.read()
	if err != nil {
		return err
	}
	if rtyp == FrameError {
		var e errorResp
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		return e.asError()
	}
	if ans, ok := resp.(*[]int64); ok {
		if _, _, err = c.batch(payload, 1, false); err == nil {
			*ans = slices.Clone(c.words)
		}
		return err
	}
	return json.Unmarshal(payload, resp)
}

// --- Request / response payloads ---------------------------------------

// LoadReq asks the server to generate and load a graph. Family is
// "random" or "hybrid" (the paper's generators); Weighted attaches
// deterministic random edge weights for MST/SSSP.
type LoadReq struct {
	Family   string `json:"family"`
	N        int64  `json:"n"`
	M        int64  `json:"m"`
	Seed     uint64 `json:"seed"`
	Weighted bool   `json:"weighted,omitempty"`
}

// LoadResp confirms a load.
type LoadResp struct {
	N int64 `json:"n"`
	M int64 `json:"m"`
}

// RunReq dispatches a kernel on the resident graph; the spec's Graph
// field is server-side.
type RunReq struct {
	Spec KernelSpec `json:"spec"`
}

// RunResp summarizes a kernel run. Result arrays stay resident; Sum is
// the deterministic content checksum an offline oracle reproduces.
type RunResp struct {
	Kernel     string  `json:"kernel"`
	Components int64   `json:"components,omitempty"`
	Weight     uint64  `json:"weight,omitempty"`
	Iterations int     `json:"iterations"`
	Sum        int64   `json:"sum"`
	SimMS      float64 `json:"sim_ms"`
}

// QueryReq is a query batch as JSON: the version-1 request body, which no
// frame carries any more (batches travel in the binary layout). It stays
// for the benchmark's codec probes, which marshal it through WriteMsg.
type QueryReq struct {
	Queries []Query `json:"queries"`
}

// QueryResp is QueryReq's counterpart: a batch's answers in query order,
// as JSON.
type QueryResp struct {
	Answers []int64 `json:"answers"`
}

// InfoResp describes the server's resident state.
type InfoResp struct {
	N          int64    `json:"n"`
	M          int64    `json:"m"`
	Nodes      int      `json:"nodes"`
	Threads    int      `json:"threads"`
	Components int64    `json:"components"`
	Resident   []string `json:"resident,omitempty"`
	Kernels    []string `json:"kernels"`
}

// errorResp reports a failure with its error class preserved, so a remote
// caller's errors.Is checks work exactly like a local caller's.
type errorResp struct {
	Class string `json:"class,omitempty"`
	Msg   string `json:"msg"`
}

// classes maps the pgas error taxonomy to wire names and back.
var classes = []struct {
	name     string
	sentinel error
}{
	{"transport", pgas.ErrTransport},
	{"timeout", pgas.ErrTimeout},
	{"corrupt", pgas.ErrCorrupt},
	{"misuse", pgas.ErrMisuse},
	{"evicted", pgas.ErrEvicted},
}

// errorClass names err's classification for the wire, or "" when
// unclassified.
func errorClass(err error) string {
	for _, c := range classes {
		if errors.Is(err, c.sentinel) {
			return c.name
		}
	}
	return ""
}

// asError reconstructs a client-side error from a wire errorResp,
// restoring the classification so errors.Is(err, pgas.ErrMisuse) etc.
// hold across the socket.
func (e *errorResp) asError() error {
	for _, c := range classes {
		if e.Class == c.name {
			return pgas.Errorf(c.sentinel, -1, "pgasd", "%s", e.Msg)
		}
	}
	return errors.New("pgasd: " + e.Msg)
}
