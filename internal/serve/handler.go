package serve

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"sync"

	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

// Server speaks the frame protocol on behalf of one Service. Connections
// are accepted concurrently; requests serialize on the cluster (a Service,
// like a Cluster, runs one SPMD region at a time — the batching API is
// what amortizes that, so clients should coalesce, not fan out).
type Server struct {
	mk func(g *graph.Graph) (*Service, error)

	mu  sync.Mutex
	svc *Service
}

// NewServer builds a Server; mk constructs the Service when a Load
// request arrives (geometry and service options are the caller's —
// cmd/pgasd builds them from flags).
func NewServer(mk func(g *graph.Graph) (*Service, error)) *Server {
	return &Server{mk: mk}
}

// Service returns the resident service (nil before the first Load).
func (s *Server) Service() *Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.handleConn(conn)
	}
}

// handleConn answers frames until the peer hangs up. Malformed frames
// (bad magic, failed checksum) kill the connection — the stream cannot be
// resynchronized — while request-level failures answer FrameError and
// keep serving.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	c := NewConn(conn)
	for {
		typ, payload, err := c.read()
		if err != nil {
			if err != io.EOF {
				_ = c.send(FrameError, &errorResp{Class: errorClass(err), Msg: err.Error()})
			}
			return
		}
		if err := c.send(s.dispatch(c, typ, payload)); err != nil {
			return
		}
	}
}

// dispatch answers one request frame read from c with the response frame's
// type and what it carries: a query batch's []int64 answers travel as a
// batch, everything else as JSON.
func (s *Server) dispatch(c *Conn, typ byte, payload []byte) (byte, interface{}) {
	resp, err := s.answer(c, typ, payload)
	if err != nil {
		return FrameError, &errorResp{Class: errorClass(err), Msg: err.Error()}
	}
	return FrameOK, resp
}

func (s *Server) answer(c *Conn, typ byte, payload []byte) (interface{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	svc := s.svc
	if svc == nil && typ != FrameLoad {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "pgasd", "no graph loaded; send a load request first")
	}
	switch typ {
	case FrameLoad:
		var req LoadReq
		if err := unmarshal(payload, &req); err != nil {
			return nil, err
		}
		g, err := Generate(&req)
		if err != nil {
			return nil, err
		}
		if svc, err = s.mk(g); err != nil {
			return nil, err
		}
		s.svc = svc
		return &LoadResp{N: g.N, M: g.M()}, nil

	case FrameRun:
		var req RunReq
		if err := unmarshal(payload, &req); err != nil {
			return nil, err
		}
		res, err := svc.Run(req.Spec)
		if err != nil {
			return nil, err
		}
		return &RunResp{
			Kernel:     res.Kernel,
			Components: res.Components,
			Weight:     res.Weight,
			Iterations: res.Iterations,
			Sum:        res.sum(),
			SimMS:      res.Run.SimMS(),
		}, nil

	case FrameQuery:
		qs, err := c.queries(payload)
		if err != nil {
			return nil, err
		}
		return svc.Query(qs)

	case FrameInsert:
		edges, err := c.edges(payload)
		if err != nil {
			return nil, err
		}
		return svc.Insert(edges)

	case FrameInfo:
		g := svc.Graph()
		return &InfoResp{
			N:          g.N,
			M:          g.M(),
			Nodes:      svc.Runtime().Nodes(),
			Threads:    svc.Runtime().NumThreads(),
			Components: svc.Components(),
			Resident:   svc.resident(),
			Kernels:    Kernels(),
		}, nil
	}
	return nil, pgas.Errorf(pgas.ErrMisuse, -1, "pgasd", "unknown frame type %d", typ)
}

func unmarshal(payload []byte, v interface{}) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return pgas.Errorf(pgas.ErrCorrupt, -1, "pgasd", "request payload: %v", err)
	}
	return nil
}

// Generate builds the requested generator graph. Shared by the server and
// offline oracle runs (the serve-smoke asserts both sides see the same
// input bit-for-bit). Sizes no simple graph has are refused here: the
// generators panic on them (or never finish drawing unique edges), and a
// Load frame must not be able to take the server down.
func Generate(req *LoadReq) (*graph.Graph, error) {
	// Vertex ids are int32; with n bounded so, n(n-1)/2 cannot overflow.
	if req.N <= 0 || req.N > math.MaxInt32 || req.M < 0 || req.M > req.N*(req.N-1)/2 {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "pgasd.load",
			"bad size n=%d m=%d (want 0 < n <= %d, 0 <= m <= n(n-1)/2)", req.N, req.M, math.MaxInt32)
	}
	var g *graph.Graph
	switch req.Family {
	case "random":
		g = graph.Random(req.N, req.M, req.Seed)
	case "hybrid":
		g = graph.Hybrid(req.N, req.M, req.Seed)
	default:
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "pgasd.load",
			"unknown family %q (random or hybrid)", req.Family)
	}
	if req.Weighted {
		g = graph.WithRandomWeights(g, req.Seed+1)
	}
	return g, nil
}
