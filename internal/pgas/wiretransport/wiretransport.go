// Package wiretransport is the multi-process pgas.Transport: every node is
// its own OS process and the fabric is a full mesh of stream sockets —
// unix-domain sockets under a shared rendezvous directory, or TCP when the
// cluster spans hosts. It carries exactly the operations the transport seam
// names — bulk get/put against exposed windows, the min-combining word
// store, barrier rendezvous — and nothing else: simulated time, message
// counters, and chaos verdicts are charged above the seam, so a kernel run
// observes the same schedule of charges and injected faults on the wire as
// in process.
//
// Files by concern: this one is the mesh lifecycle (Connect, dial and
// accept, Abort, Close, Fail); request.go the request path (route, call,
// the pending table, the one blocking wait, Get/Put/PutMin); membership.go
// rendezvous generations and epoch agreement; frame.go the frame codec,
// reader and serve paths; stats.go the counters. Windows live in an
// embedded pgas.WinTable, the registry the in-process backend keeps too.
//
// Wire protocol (version 4). Every frame is a fixed 40-byte little-endian
// header and an optional payload of words:
//
//	[0]     frame type
//	[1]     window kind
//	[2]     status (responses)
//	[3]     payload word width in bits, 0..64
//	[4:8]   window id; membership epoch for BARRIER
//	[8:12]  window sub; the dialing seat for HELLO
//	[12:20] offset (elements); rendezvous generation for BARRIER,
//	        membership epoch for EVICT, cause length in bytes for ABORT,
//	        protocol version for HELLO
//	[20:28] payload count (words); request length for GET
//	[28:36] request id; float64 bits of the clock maximum for BARRIER
//	[36:40] CRC-32C of the payload bytes as they travel
//
// The payload is pgas.AppendWords' frame of reference: count > 0 words
// travel as 8 + ceil(count·width/8) bytes — their minimum as an 8-byte
// base, then every word minus the base packed in width bits, the fewest
// that hold the frame's range (0 when every word is equal) — and count =
// 0 as no bytes at width 0. An owner's index segment spans one owner block and a label
// run one component's ids, so a word costs its range, not its magnitude.
// The width cannot be configured and is invisible above the seam; the
// simulated Bytes counters keep charging the paper's 8-byte words. A width
// above 64, or one on a frame without payload bytes, is a protocol
// violation decided from the header.
//
// HELLO carries the protocol version; an acceptor refuses a dialer that
// speaks another one, so a mixed-binary mesh fails at Connect with both
// versions and the peer's address instead of dying mid-run on checksum
// aborts.
//
// Receive rule: validate, read, verify, apply. The reader bounds a payload
// from its header before reading a byte of it — a PUT must fit its exposed
// window, a GETRESP must match its pending request's length, PUTMIN, EVICT
// and ABORT payloads have fixed caps — and a header that fails is a
// protocol violation (Abort naming the edge), never an allocation. The
// payload is read into a reader-owned scratch and its CRC checked there;
// only then are words decoded, straight into their destination: a PUT into
// its window, a GETRESP into the waiter's buffer. A corrupt frame never
// touches a window or a caller's buffer, and a waiter that gave up is
// never written to — the reader claims the pending request before it
// decodes, and a waiter that loses that race waits for the decode to end.
//
// PUT frames coalesce: they are buffered per destination connection and
// flushed by the next frame on that connection that needs an answer (GET,
// PUTMIN) or orders delivery (BARRIER, EVICT, ABORT), so a serve phase's
// pushes to one peer ride the wire together. Per-connection FIFO plus the
// flush-before-BARRIER rule realizes the seam's ordering contract: a Put is
// applied at its destination before any later Rendezvous completes.
//
// Window lifetime. Windows are exposed by host-side allocation and dropped
// by id range (Unexpose) when the runtime releases the scope that drew the
// ids — a kernel's shared state lives until its entry returns. A frame
// that names a dropped window is handled like any unexposed one: a GET is
// refused, a PUT is a protocol violation.
//
// Failure model. Real wire failures surface through the runtime's
// classified taxonomy and the transport never hangs. Three teardown classes
// are distinguished at the socket layer:
//
//   - goodbye: EOF after a GOODBYE frame is an orderly end-of-trial
//     shutdown and is silent;
//   - crash: EOF (or a read/write error) without a GOODBYE is a dead peer
//     process. The seat is marked crashed and every operation that depends
//     on it — pending GET/PUTMIN requests, open rendezvous generations,
//     and later calls — resolves promptly with *pgas.EvictionError naming
//     that node's thread ids. A crash does NOT poison the transport: the
//     survivors can agree on the dead set (EvictNodes) and keep computing
//     on the shrunk geometry;
//   - deadline: a missed per-operation deadline is ErrTimeout and still
//     poisons the transport (Abort, sticky, first cause wins) — a wedged
//     but live peer cannot be safely evicted.
//
// A checksum mismatch on a response is ErrCorrupt to its waiter; on a
// one-way frame it poisons the transport.
//
// Membership. Live nodes are tracked as a view: the sorted list of
// surviving original seats. Nodes()/Node() report virtual (dense) numbering
// over the view and the data plane translates virtual ids to original
// seats, so a pgas.Runtime rebuilt for the shrunk geometry works unchanged.
// Eviction is agreed cluster-wide by a leaderless epoch-stamped rendezvous:
// each survivor broadcasts an EVICT frame carrying the proposed dead-seat
// bitmap for epoch e+1, every receiver folds the union, and the epoch
// commits once every live seat has either proposed or crashed. The union
// fold makes the agreed set deterministic regardless of proposal order.
// Rendezvous generations restart at the new epoch (BARRIER frames carry
// their epoch, so stragglers cannot alias across the reset). A node that
// must evict itself (its own threads were killed) proposes its own seat,
// keeps serving reads until the agreement completes so survivors drain
// deterministically, then hard-closes its sockets (Fail).
package wiretransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pgasgraph/internal/pgas"
)

// DefaultTimeout bounds every blocking wire operation when Config.Timeout
// is zero. It is deliberately generous: it only fires when a peer process
// is dead or wedged, and then it converts a hang into a classified
// ErrTimeout.
const DefaultTimeout = 30 * time.Second

// Dial backoff: retries start short and double up to the cap, so a mesh
// assembling over TCP neither spins nor waits out long fixed sleeps.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// Config describes one node's seat in the cluster.
type Config struct {
	// Nodes is the cluster size p; Node is this process's seat in [0,p).
	Nodes int
	Node  int
	// ThreadsPerNode is the machine geometry's threads-per-node. The
	// transport needs it only to name thread ids in EvictionError; it must
	// match the runtime's machine config. Zero means 1.
	ThreadsPerNode int
	// Network selects the socket family: "unix" (default) or "tcp".
	Network string
	// Dir is the rendezvous directory all p processes share when Network
	// is "unix"; node i listens on Dir/node-<i>.sock.
	Dir string
	// Addrs holds each node's host:port when Network is "tcp"; it must
	// have exactly Nodes entries and be identical on every node.
	Addrs []string
	// Timeout bounds every blocking operation (connect, get, putmin,
	// rendezvous, evict agreement). Zero means DefaultTimeout.
	Timeout time.Duration
}

func (c *Config) network() string {
	if c.Network == "" {
		return "unix"
	}
	return c.Network
}

// addr returns the listening address of seat nd under this config.
func (c *Config) addr(nd int) string {
	if c.network() == "unix" {
		return socketPath(c.Dir, nd)
	}
	if nd >= 0 && nd < len(c.Addrs) {
		return c.Addrs[nd]
	}
	return fmt.Sprintf("<no addr for seat %d>", nd)
}

// socketPath returns the listening socket path of node in dir.
func socketPath(dir string, node int) string {
	return filepath.Join(dir, fmt.Sprintf("node-%d.sock", node))
}

// peerConn is one mesh edge: the connection, its buffered writer, and the
// scratch the writer reuses. wmu serializes frame writes from the node's
// threads and from the goroutines answering GETs.
type peerConn struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	hdr  [headerLen]byte
	pay  []byte
	puts uint64 // PUT frames buffered since the last flush
}

// Transport is one node's endpoint of the socket mesh. It implements
// pgas.Transport (Shared() == false) and pgas.NodeEvictor.
type Transport struct {
	cfg   Config
	tpn   int
	ln    net.Listener
	peers []*peerConn // indexed by original seat; nil at cfg.Node

	pgas.WinTable // this node's windows, read and written under rmu

	// rmu serializes inbound frame application across the per-connection
	// reader goroutines. Together with per-connection FIFO and the
	// rendezvous channel close it forms the happens-before chain that
	// makes replica reads after a barrier race-free: apply (under rmu) →
	// barrier arrival (under rdvMu) → done close → waiting caller.
	rmu sync.Mutex

	// rdvMu guards all membership state: rendezvous generations, the
	// epoch, seat liveness, eviction agreements, and view transitions.
	rdvMu       sync.Mutex
	rdvGen      uint64
	rdv         map[rdvKey]*rdvState
	epoch       uint64
	gone        []uint8 // seatAlive/seatLeaving/seatCrashed by original seat
	evs         map[uint64]*evState
	selfEvicted bool

	liveView atomic.Pointer[viewState]

	pendMu sync.Mutex
	reqSeq uint64
	pend   map[uint64]pendReq

	abortOnce sync.Once
	abortCh   chan struct{}
	cause     atomic.Pointer[string] // set once, as the abort begins

	closed   atomic.Bool
	departed []atomic.Bool // peers that announced a clean shutdown

	ctr counters
}

// Connect joins the mesh: listen on this node's socket, dial every lower
// seat, accept every higher seat, and start one reader per connection. It
// returns once all p-1 edges are up, or a classified error when the
// cluster does not assemble within the timeout.
func Connect(cfg Config) (*Transport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Nodes < 1 || cfg.Node < 0 || cfg.Node >= cfg.Nodes {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
			"node %d out of range [0,%d)", cfg.Node, cfg.Nodes)
	}
	switch cfg.network() {
	case "unix":
	case "tcp":
		if len(cfg.Addrs) != cfg.Nodes {
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
				"tcp mesh needs %d addrs, got %d", cfg.Nodes, len(cfg.Addrs))
		}
	default:
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "wire Connect",
			"unknown network %q (unix, tcp)", cfg.Network)
	}
	t := newEndpoint(cfg)

	laddr := cfg.addr(cfg.Node)
	if cfg.network() == "unix" {
		_ = os.Remove(laddr)
	}
	ln, err := net.Listen(cfg.network(), laddr)
	if err != nil {
		return nil, pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
			"node %d: listen %s %s: %v", cfg.Node, cfg.network(), laddr, err)
	}
	t.ln = ln

	deadline := time.Now().Add(cfg.Timeout)

	// Accept the higher seats concurrently with dialing the lower ones —
	// both directions progress at every node, so the mesh cannot deadlock
	// on connect order.
	accErr := make(chan error, 1)
	go func() { accErr <- t.acceptPeers(deadline) }()

	for nd := 0; nd < cfg.Node; nd++ {
		if err := t.dialPeer(nd, deadline); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if err := <-accErr; err != nil {
		ln.Close()
		return nil, err
	}
	for nd, p := range t.peers {
		if nd != cfg.Node {
			go t.readLoop(nd, p)
		}
	}
	return t, nil
}

// newEndpoint returns cfg's seat with all of its state and none of its
// sockets: every seat alive, no windows, no edges.
func newEndpoint(cfg Config) *Transport {
	tpn := cfg.ThreadsPerNode
	if tpn <= 0 {
		tpn = 1
	}
	t := &Transport{
		cfg:      cfg,
		tpn:      tpn,
		peers:    make([]*peerConn, cfg.Nodes),
		rdv:      make(map[rdvKey]*rdvState),
		gone:     make([]uint8, cfg.Nodes),
		evs:      make(map[uint64]*evState),
		pend:     make(map[uint64]pendReq),
		abortCh:  make(chan struct{}),
		departed: make([]atomic.Bool, cfg.Nodes),
	}
	seats := make([]int, cfg.Nodes)
	for i := range seats {
		seats[i] = i
	}
	t.liveView.Store(&viewState{seats: seats, vnode: cfg.Node})
	return t
}

// dialPeer connects to a lower seat, retrying with capped exponential
// backoff until the deadline: the peer process may not have started
// listening yet, and over TCP the first connect can be refused outright.
func (t *Transport) dialPeer(nd int, deadline time.Time) error {
	addr := t.cfg.addr(nd)
	backoff := dialBackoffMin
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout(t.cfg.network(), addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return pgas.Errorf(pgas.ErrTimeout, -1, "wire Connect",
				"%s never came up: %v", t.edge(nd), err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
	p := &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
	t.peers[nd] = p
	// Identify this seat, and the wire format it speaks, to the acceptor.
	return t.send(nd, header{typ: frHello, w: pgas.Win{Sub: int32(t.cfg.Node)}, off: protoVersion}, nil, true)
}

func (t *Transport) acceptPeers(deadline time.Time) error {
	want := t.cfg.Nodes - 1 - t.cfg.Node // seats above ours dial us
	for got := 0; got < want; got++ {
		if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return pgas.Errorf(pgas.ErrTimeout, -1, "wire Connect",
				"node %d: %d of %d higher seats connected: %v", t.cfg.Node, got, want, err)
		}
		conn.SetReadDeadline(deadline)
		var raw [headerLen]byte
		if _, err := io.ReadFull(conn, raw[:]); err != nil || raw[0] != frHello {
			conn.Close()
			return pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
				"node %d: bad hello from peer: %v", t.cfg.Node, err)
		}
		conn.SetReadDeadline(time.Time{})
		hello := parseHeader(raw[:])
		t.ctr.recvFrames[frHello].Add(1)
		nd := int(hello.w.Sub)
		if hello.off != protoVersion {
			err := pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
				"node %d: peer node %d (%s %s) speaks wire protocol v%d, this node v%d",
				t.cfg.Node, nd, t.cfg.network(), t.cfg.addr(nd), hello.off, protoVersion)
			// Tell the dialer why before hanging up (best effort), so its
			// side unwinds with the cause instead of classifying a crash.
			_ = t.sendAbort(&peerConn{conn: conn, bw: bufio.NewWriter(conn)}, nd, err.Error())
			conn.Close()
			return err
		}
		if nd <= t.cfg.Node || nd >= t.cfg.Nodes || t.peers[nd] != nil {
			conn.Close()
			return pgas.Errorf(pgas.ErrTransport, -1, "wire Connect",
				"node %d: hello names invalid seat %d", t.cfg.Node, nd)
		}
		t.peers[nd] = &peerConn{conn: conn, bw: bufio.NewWriter(conn)}
	}
	return nil
}

// edge names a mesh edge for error messages: originating node, remote
// node, and the remote address, so an abort cause says which peer failed.
func (t *Transport) edge(nd int) string {
	return fmt.Sprintf("node %d -> node %d (%s %s)", t.cfg.Node, nd, t.cfg.network(), t.cfg.addr(nd))
}

func (t *Transport) Shared() bool { return false }

// Nodes and Node report the surviving geometry in virtual (dense)
// numbering; they shrink when an eviction epoch commits.
func (t *Transport) Nodes() int { return len(t.liveView.Load().seats) }
func (t *Transport) Node() int  { return t.liveView.Load().vnode }

// ThreadsPerNode reports the configured machine geometry (for runtime
// validation against the machine config).
func (t *Transport) ThreadsPerNode() int { return t.cfg.ThreadsPerNode }

func tid(th *pgas.Thread) int {
	if th == nil {
		return -1
	}
	return th.ID
}

// send encodes one frame and writes it to original seat nd; see sendOn.
func (t *Transport) send(nd int, h header, payload []int64, flush bool) error {
	return t.sendOn(t.peers[nd], nd, h, payload, flush)
}

func (t *Transport) aborted() bool { return t.cause.Load() != nil }

func (t *Transport) abortErr(th *pgas.Thread, op string) error {
	return pgas.Errorf(pgas.ErrTransport, tid(th), op, "transport aborted: %s", *t.cause.Load())
}

// Abort poisons the transport: local waiters unblock with ErrTransport and
// every peer is told (best effort) so the whole cluster unwinds instead of
// waiting out deadlines. The first cause wins; a poisoned transport stays
// poisoned.
func (t *Transport) Abort(cause string) {
	t.abortOnce.Do(func() {
		t.cause.Store(&cause)
		close(t.abortCh)
		for nd, p := range t.peers {
			if nd != t.cfg.Node && p != nil {
				_ = t.sendAbort(p, nd, cause)
			}
		}
	})
}

// sendAbort writes an ABORT frame carrying cause (truncated to the
// protocol's cap) to p: the text packed into words, its byte length in the
// offset field.
func (t *Transport) sendAbort(p *peerConn, nd int, cause string) error {
	if len(cause) > maxAbortWords*8 {
		cause = cause[:maxAbortWords*8]
	}
	payload := make([]int64, (len(cause)+7)/8)
	b := make([]byte, len(payload)*8)
	copy(b, cause)
	for j := range payload {
		payload[j] = int64(binary.LittleEndian.Uint64(b[j*8:]))
	}
	return t.sendOn(p, nd, header{typ: frAbort, off: int64(len(cause)), count: int64(len(payload))}, payload, true)
}

// Close tears the mesh down: announce a clean departure to every peer
// (best effort), then close the sockets. The GOODBYE lets a peer that is
// still draining its final frames tell an orderly end-of-trial shutdown
// apart from a crash — EOF after GOODBYE is silence, EOF without it marks
// the seat crashed and evictable.
func (t *Transport) Close() error {
	t.closed.Store(true)
	for nd, p := range t.peers {
		if nd != t.cfg.Node && p != nil {
			_ = t.send(nd, header{typ: frGoodbye}, nil, true)
		}
	}
	return t.hangUp()
}

// Fail hard-closes the mesh without a GOODBYE: the deliberate teardown of a
// node that has been evicted. Peers classify the EOF as a crash and resolve
// their operations with EvictionError. An evicted node that already
// completed the membership agreement cooperatively (EvictNodes on its own
// seat) calls Fail afterwards; survivors have moved to the new epoch and
// ignore the dead edge.
func (t *Transport) Fail() error {
	t.rdvMu.Lock()
	t.selfEvicted = true
	t.rdvMu.Unlock()
	t.closed.Store(true)
	return t.hangUp()
}

// hangUp closes the listener and every mesh edge.
func (t *Transport) hangUp() error {
	if t.ln != nil {
		t.ln.Close()
	}
	for nd, p := range t.peers {
		if nd != t.cfg.Node && p != nil {
			p.conn.Close()
		}
	}
	return nil
}

// connDown handles a broken mesh edge: silent after our own Close/Fail or
// the peer's announced departure; silent for a peer already evicted out of
// the view; otherwise the peer process died without a GOODBYE and the seat
// is classified as crashed.
func (t *Transport) connDown(nd int, err error) {
	if t.closed.Load() || t.departed[nd].Load() {
		return
	}
	t.peerCrashed(nd, err)
}

var (
	_ pgas.Transport   = (*Transport)(nil)
	_ pgas.NodeEvictor = (*Transport)(nil)
)
