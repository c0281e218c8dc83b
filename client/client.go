// Package client is the Go client for a pgasd graph service: it dials the
// server's unix socket, speaks the length-prefixed frame protocol (through
// serve.Conn, the framing both ends share), and exposes the batched query
// API as plain method calls. The request and payload types are shared with
// the server (aliases into internal/serve), so a query batch built against
// this package is the one the Service answers in-process, and classified
// errors round-trip —
// errors.Is(err, pgas.ErrMisuse) holds across the socket. One Client is
// one connection; it is not goroutine-safe (the protocol is strictly
// request/response). See docs/SERVING.md.
package client

import (
	"net"

	"pgasgraph/internal/serve"
)

// Re-exported request/response currency, shared with the server.
type (
	// Query is one point lookup in a batch.
	Query = serve.Query
	// Op selects a query kind.
	Op = serve.Op
	// Edge is one inserted edge.
	Edge = serve.Edge
	// KernelSpec names a kernel run on the server's resident graph.
	KernelSpec = serve.KernelSpec
	// LoadReq describes the generator graph to load.
	LoadReq = serve.LoadReq
	// LoadResp confirms a load.
	LoadResp = serve.LoadResp
	// RunResp summarizes a kernel run (arrays stay server-resident).
	RunResp = serve.RunResp
	// InsertResp reports how an insertion batch was applied.
	InsertResp = serve.InsertReport
	// InfoResp describes the server's resident state.
	InfoResp = serve.InfoResp
)

// Query kinds.
const (
	SameComponent = serve.SameComponent
	ComponentSize = serve.ComponentSize
	Distance      = serve.Distance
	TreeParent    = serve.TreeParent
)

// Client is one connection to a pgasd server.
type Client struct {
	conn net.Conn
	fr   *serve.Conn // conn, framed
}

// Dial connects to the pgasd unix socket.
func Dial(socket string) (*Client, error) {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, fr: serve.NewConn(conn)}, nil
}

// Close hangs up.
func (c *Client) Close() error { return c.conn.Close() }

// call performs one exchange whose answer is a T.
func call[T any](c *Client, typ byte, req interface{}) (*T, error) {
	resp := new(T)
	if err := c.fr.Call(typ, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Load asks the server to generate and load a graph, replacing any
// resident one.
func (c *Client) Load(req LoadReq) (*LoadResp, error) {
	return call[LoadResp](c, serve.FrameLoad, &req)
}

// Run dispatches a kernel on the resident graph. Result arrays stay
// resident server-side for querying; the response carries the summary and
// a deterministic content checksum.
func (c *Client) Run(spec KernelSpec) (*RunResp, error) {
	return call[RunResp](c, serve.FrameRun, &serve.RunReq{Spec: spec})
}

// Query answers a batch of point lookups; answers land in query order.
// The server coalesces the whole batch into one bulk gather per stage.
func (c *Client) Query(qs []Query) ([]int64, error) {
	ans, err := call[[]int64](c, serve.FrameQuery, qs)
	if err != nil {
		return nil, err
	}
	return *ans, nil
}

// Insert applies an edge-insertion batch. Resident component labels
// update incrementally (or by supervised recompute on a fault); resident
// distance/parent trees are dropped as stale.
func (c *Client) Insert(edges []Edge) (*InsertResp, error) {
	return call[InsertResp](c, serve.FrameInsert, edges)
}

// Info describes the server's graph, geometry, and resident arrays.
func (c *Client) Info() (*InfoResp, error) {
	return call[InfoResp](c, serve.FrameInfo, struct{}{})
}
