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
// Wire protocol (version 3). Every frame is a fixed 40-byte little-endian
// header and an optional payload of words:
//
//	[0]     frame type
//	[1]     window kind
//	[2]     status (responses)
//	[3]     payload word width in bytes, 0..8
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
// travel as 8 + count·width bytes — their minimum as an 8-byte base, then
// every word minus the base in width bytes, the fewest that hold the
// frame's range (0 when every word is equal) — and count = 0 as no bytes
// at width 0. An owner's index segment spans one owner block and a label
// run one component's ids, so a word costs its range, not its magnitude.
// The width cannot be configured and is invisible above the seam; the
// simulated Bytes counters keep charging the paper's 8-byte words. A width
// above 8, or one on a frame without payload bytes, is a protocol
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
	"errors"
	"fmt"
	"io"
	"math"
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
		return SocketPath(c.Dir, nd)
	}
	if nd >= 0 && nd < len(c.Addrs) {
		return c.Addrs[nd]
	}
	return fmt.Sprintf("<no addr for seat %d>", nd)
}

// SocketPath returns the listening socket path of node in dir.
func SocketPath(dir string, node int) string {
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

// rdvKey names one rendezvous generation within one membership epoch.
// Keying by epoch keeps a fast survivor's first post-eviction barrier frame
// (which can arrive before this node commits the epoch) from aliasing a
// pre-eviction generation number.
type rdvKey struct {
	epoch, gen uint64
}

// rdvState accumulates one rendezvous generation: how many peers have
// arrived and the running maximum of their clock values. A generation that
// cannot complete because a participant died is closed with err set.
type rdvState struct {
	got    int
	max    float64
	err    error
	closed bool
	done   chan struct{}
}

// seat liveness classes (guarded by rdvMu, indexed by original seat).
const (
	seatAlive   uint8 = iota
	seatLeaving       // named dead by an EVICT proposal; still serving reads
	seatCrashed       // connection died without GOODBYE
)

// evState accumulates one membership epoch's agreement: the union of
// proposed dead seats and which live peers have proposed. agreed is filled
// (in original seat numbering) when the epoch commits.
type evState struct {
	epoch   uint64
	union   []bool // by original seat
	arrived []bool // by original seat
	self    bool   // local proposal contributed
	closed  bool
	agreed  []int // original seats, set at commit
	done    chan struct{}
}

// viewState is the live membership: surviving original seats in ascending
// order and this node's index among them (its virtual node id).
type viewState struct {
	seats []int
	vnode int
}

// pendReq is one request awaiting its response. The reader decodes a
// verified GETRESP straight into dst, so whoever removes the entry from
// the table owns dst until it has sent on ch.
type pendReq struct {
	ch   chan wireResp
	seat int     // destination original seat, so a crash can resolve it
	dst  []int64 // a GET's destination; nil for PUTMIN
}

type wireResp struct {
	status uint8
	err    error
}

// Transport is one node's endpoint of the socket mesh. It implements
// pgas.Transport (Shared() == false) and pgas.NodeEvictor.
type Transport struct {
	cfg   Config
	tpn   int
	ln    net.Listener
	peers []*peerConn // indexed by original seat; nil at cfg.Node

	winMu sync.RWMutex
	wins  map[pgas.Win][]int64

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
	causeMu   sync.Mutex
	cause     string

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
		wins:     make(map[pgas.Win][]int64),
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

// SelfEvicted reports whether this node was evicted from the cluster
// (its own seat was in a committed dead set, or Fail was called).
func (t *Transport) SelfEvicted() bool {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.selfEvicted
}

func (t *Transport) Expose(w pgas.Win, data []int64) {
	t.winMu.Lock()
	t.wins[w] = data
	t.winMu.Unlock()
}

// Unexpose drops every window whose id lies in (lo, hi]: one pass over the
// table, whatever kinds and subs the ids were exposed under.
func (t *Transport) Unexpose(lo, hi uint32) {
	t.winMu.Lock()
	for w := range t.wins {
		if w.ID > lo && w.ID <= hi {
			delete(t.wins, w)
		}
	}
	t.winMu.Unlock()
}

// window returns w's backing slice when [off, off+k) lies inside it.
func (t *Transport) window(w pgas.Win, off, k int64) ([]int64, bool) {
	t.winMu.RLock()
	data, ok := t.wins[w]
	t.winMu.RUnlock()
	if !ok || off < 0 || k < 0 || off > int64(len(data)) || k > int64(len(data))-off {
		return nil, false
	}
	return data, true
}

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

// sendFailed classifies a failed write to seat. A deadline is a wedged but
// live peer and keeps the sticky-abort contract; a broken connection without
// a GOODBYE is the write side of crash detection — the reader's EOF may not
// have landed yet when a send to a freshly dead peer fails, and the writer
// must not poison the cluster for a death the survivors can recover from.
// It returns the error the caller surfaces.
func (t *Transport) sendFailed(seat int, err error) error {
	if errors.Is(err, pgas.ErrTimeout) || t.departed[seat].Load() {
		t.Abort(err.Error())
		return err
	}
	t.peerCrashed(seat, err)
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	return t.evictErrLocked(seat)
}

func (t *Transport) register(seat int, dst []int64) (uint64, chan wireResp) {
	ch := make(chan wireResp, 1)
	t.pendMu.Lock()
	t.reqSeq++
	id := t.reqSeq
	t.pend[id] = pendReq{ch: ch, seat: seat, dst: dst}
	t.pendMu.Unlock()
	return id, ch
}

// claim removes request id from the table. Whoever claims an entry sends
// exactly one wireResp on its channel.
func (t *Transport) claim(id uint64) (pendReq, bool) {
	t.pendMu.Lock()
	pr, ok := t.pend[id]
	if ok {
		delete(t.pend, id)
	}
	t.pendMu.Unlock()
	return pr, ok
}

func (t *Transport) resolve(id uint64, r wireResp) {
	if pr, ok := t.claim(id); ok {
		pr.ch <- r
	}
}

// abandon withdraws a request its waiter has given up on. When the entry
// is already claimed — the reader is decoding the response into dst, or a
// crash is resolving it — abandon waits for the claimant's send, so dst is
// never written after the waiter returns. The wait is bounded: claimants
// only touch memory between claiming and sending.
func (t *Transport) abandon(id uint64, ch chan wireResp) {
	if _, ok := t.claim(id); !ok {
		<-ch
	}
}

func (t *Transport) aborted() bool {
	select {
	case <-t.abortCh:
		return true
	default:
		return false
	}
}

func (t *Transport) abortErr(th *pgas.Thread, op string) error {
	t.causeMu.Lock()
	cause := t.cause
	t.causeMu.Unlock()
	return pgas.Errorf(pgas.ErrTransport, tid(th), op, "transport aborted: %s", cause)
}

// evictErrLocked builds the EvictionError for dead seats under the current
// virtual numbering: only original seat `only` when only >= 0, else every
// non-alive seat still in the view. Caller holds rdvMu.
func (t *Transport) evictErrLocked(only int) error {
	vs := t.liveView.Load()
	var ths []int
	for v, s := range vs.seats {
		if only >= 0 {
			if s != only {
				continue
			}
		} else if t.gone[s] == seatAlive {
			continue
		}
		for k := 0; k < t.tpn; k++ {
			ths = append(ths, v*t.tpn+k)
		}
	}
	return &pgas.EvictionError{Threads: ths}
}

// crashedFast resolves an operation against a crashed seat without waiting
// out a deadline. Leaving seats (named in a proposal but still draining)
// keep serving, so they do not fail fast.
func (t *Transport) crashedFast(seat int) error {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if t.gone[seat] == seatCrashed {
		return t.evictErrLocked(seat)
	}
	return nil
}

// Get reads len(dst) elements of virtual node's window w starting at off.
func (t *Transport) Get(th *pgas.Thread, node int, w pgas.Win, off int64, dst []int64) error {
	const op = "wire Get"
	vs := t.liveView.Load()
	if node == vs.vnode {
		return t.localGet(th, op, w, off, dst)
	}
	if node < 0 || node >= len(vs.seats) {
		return pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d out of range [0,%d)", node, len(vs.seats))
	}
	seat := vs.seats[node]
	if t.aborted() {
		return t.abortErr(th, op)
	}
	if err := t.crashedFast(seat); err != nil {
		return err
	}
	id, ch := t.register(seat, dst)
	if err := t.send(seat, header{typ: frGet, w: w, off: off, count: int64(len(dst)), reqID: id}, nil, true); err != nil {
		t.abandon(id, ch)
		return t.sendFailed(seat, err)
	}
	timer := time.NewTimer(t.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		if r.status != stOK {
			return pgas.Errorf(pgas.ErrMisuse, tid(th), op,
				"node %d rejected window %+v [%d,%d)", node, w, off, off+int64(len(dst)))
		}
		return nil
	case <-t.abortCh:
		t.abandon(id, ch)
		return t.abortErr(th, op)
	case <-timer.C:
		t.abandon(id, ch)
		if ee := t.crashedFast(seat); ee != nil {
			return ee
		}
		err := pgas.Errorf(pgas.ErrTimeout, tid(th), op,
			"%s: no response within %v", t.edge(seat), t.cfg.Timeout)
		t.Abort(err.Error())
		return err
	}
}

// Put writes src into virtual node's window w starting at off. The frame is
// buffered on the destination's connection and flushed by the next
// ordering frame (GET, PUTMIN, BARRIER, EVICT, ABORT) to that node.
func (t *Transport) Put(th *pgas.Thread, node int, w pgas.Win, off int64, src []int64) error {
	const op = "wire Put"
	vs := t.liveView.Load()
	if node == vs.vnode {
		return t.localPut(th, op, w, off, src)
	}
	if node < 0 || node >= len(vs.seats) {
		return pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d out of range [0,%d)", node, len(vs.seats))
	}
	seat := vs.seats[node]
	if t.aborted() {
		return t.abortErr(th, op)
	}
	if err := t.crashedFast(seat); err != nil {
		return err
	}
	if err := t.send(seat, header{typ: frPut, w: w, off: off, count: int64(len(src))}, src, false); err != nil {
		return t.sendFailed(seat, err)
	}
	return nil
}

// PutMin atomically lowers virtual node's window element to v if smaller.
func (t *Transport) PutMin(th *pgas.Thread, node int, w pgas.Win, off int64, v int64) (bool, error) {
	const op = "wire PutMin"
	vs := t.liveView.Load()
	if node == vs.vnode {
		return t.localPutMin(th, op, w, off, v)
	}
	if node < 0 || node >= len(vs.seats) {
		return false, pgas.Errorf(pgas.ErrMisuse, tid(th), op, "node %d out of range [0,%d)", node, len(vs.seats))
	}
	seat := vs.seats[node]
	if t.aborted() {
		return false, t.abortErr(th, op)
	}
	if err := t.crashedFast(seat); err != nil {
		return false, err
	}
	id, ch := t.register(seat, nil)
	if err := t.send(seat, header{typ: frPutMin, w: w, off: off, count: 1, reqID: id}, []int64{v}, true); err != nil {
		t.abandon(id, ch)
		return false, t.sendFailed(seat, err)
	}
	timer := time.NewTimer(t.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return false, r.err
		}
		if r.status == stBadWindow {
			return false, pgas.Errorf(pgas.ErrMisuse, tid(th), op,
				"node %d rejected window %+v off %d", node, w, off)
		}
		return r.status == stStored, nil
	case <-t.abortCh:
		t.abandon(id, ch)
		return false, t.abortErr(th, op)
	case <-timer.C:
		t.abandon(id, ch)
		if ee := t.crashedFast(seat); ee != nil {
			return false, ee
		}
		err := pgas.Errorf(pgas.ErrTimeout, tid(th), op,
			"%s: no response within %v", t.edge(seat), t.cfg.Timeout)
		t.Abort(err.Error())
		return false, err
	}
}

// rdvGetLocked returns generation k's accumulator, creating it on first
// touch from either side (a fast peer's arrival may precede the local
// call). Caller holds rdvMu.
func (t *Transport) rdvGetLocked(k rdvKey) *rdvState {
	st, ok := t.rdv[k]
	if !ok {
		st = &rdvState{max: math.Inf(-1), done: make(chan struct{})}
		t.rdv[k] = st
	}
	return st
}

// rdvCheckLocked completes a generation once every live peer of its epoch
// has arrived. Future-epoch accumulations wait for the epoch to commit
// (the commit sweeps them). Caller holds rdvMu.
func (t *Transport) rdvCheckLocked(k rdvKey, st *rdvState) {
	if st.closed || k.epoch != t.epoch {
		return
	}
	if st.got >= len(t.liveView.Load().seats)-1 {
		st.closed = true
		close(st.done)
	}
}

// failRdvLocked closes every open generation of the current epoch with the
// eviction error naming the currently-dead seats: a generation cannot
// complete once a participant is gone. Caller holds rdvMu.
func (t *Transport) failRdvLocked() {
	var err error
	for k, st := range t.rdv {
		if k.epoch != t.epoch || st.closed {
			continue
		}
		if err == nil {
			err = t.evictErrLocked(-1)
		}
		st.err = err
		st.closed = true
		close(st.done)
	}
}

// Rendezvous is the cross-process barrier leg: broadcast the local clock
// maximum under the next generation number (every process calls Rendezvous
// in the same SPMD sequence, so generations align without negotiation),
// wait for all live peers, and fold the global maximum. When a participant
// is dead — crashed, or named in an eviction proposal — the rendezvous
// fails promptly with *pgas.EvictionError instead of waiting out the
// deadline, and the transport stays usable for the membership agreement.
func (t *Transport) Rendezvous(localMax float64) (float64, error) {
	const op = "wire Rendezvous"
	if t.aborted() {
		return 0, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatAlive {
			err := t.evictErrLocked(-1)
			t.rdvMu.Unlock()
			return 0, err
		}
	}
	t.rdvGen++
	gen := t.rdvGen
	k := rdvKey{epoch: t.epoch, gen: gen}
	st := t.rdvGetLocked(k)
	t.rdvCheckLocked(k, st)
	t.rdvMu.Unlock()

	for _, s := range vs.seats {
		if s == t.cfg.Node {
			continue
		}
		bar := header{typ: frBarrier, w: pgas.Win{ID: uint32(k.epoch)}, off: int64(gen), reqID: math.Float64bits(localMax)}
		if err := t.send(s, bar, nil, true); err != nil {
			if errors.Is(err, pgas.ErrTimeout) || t.departed[s].Load() {
				t.Abort(err.Error())
				return 0, err
			}
			// Write-side crash detection: the crash path fails the
			// registered generation; wait on it below so every caller
			// observes the same classified error.
			t.peerCrashed(s, err)
			continue
		}
	}
	timer := time.NewTimer(t.cfg.Timeout)
	defer timer.Stop()
	select {
	case <-st.done:
		t.rdvMu.Lock()
		ferr := st.err
		g := st.max
		delete(t.rdv, k)
		t.rdvMu.Unlock()
		if ferr != nil {
			return 0, ferr
		}
		if localMax > g {
			g = localMax
		}
		return g, nil
	case <-t.abortCh:
		return 0, t.abortErr(nil, op)
	case <-timer.C:
		t.rdvMu.Lock()
		var goneErr error
		for _, s := range vs.seats {
			if s != t.cfg.Node && t.gone[s] != seatAlive {
				goneErr = t.evictErrLocked(-1)
				break
			}
		}
		got := st.got
		t.rdvMu.Unlock()
		if goneErr != nil {
			return 0, goneErr
		}
		err := pgas.Errorf(pgas.ErrTimeout, -1, op,
			"node %d: rendezvous gen %d incomplete after %v (%d of %d peers)",
			t.cfg.Node, gen, t.cfg.Timeout, got, len(vs.seats)-1)
		t.Abort(err.Error())
		return 0, err
	}
}

// evGetLocked returns epoch's agreement accumulator, creating it on first
// touch from either side. Caller holds rdvMu.
func (t *Transport) evGetLocked(epoch uint64) *evState {
	st, ok := t.evs[epoch]
	if !ok {
		st = &evState{
			epoch:   epoch,
			union:   make([]bool, t.cfg.Nodes),
			arrived: make([]bool, t.cfg.Nodes),
			done:    make(chan struct{}),
		}
		t.evs[epoch] = st
	}
	return st
}

// markLeavingLocked marks every union-named live seat as leaving and fails
// the current epoch's open rendezvous generations, so local waiters unwind
// with EvictionError at their next barrier instead of a deadline. Caller
// holds rdvMu.
func (t *Transport) markLeavingLocked(st *evState) {
	vs := t.liveView.Load()
	marked := false
	for _, s := range vs.seats {
		if s != t.cfg.Node && st.union[s] && t.gone[s] == seatAlive {
			t.gone[s] = seatLeaving
			marked = true
		}
	}
	if marked {
		t.failRdvLocked()
	}
}

// evCheckLocked commits the next membership epoch once this node has
// proposed and every live seat has either proposed, been proposed dead, or
// crashed. The agreed set is the union of proposals plus crash-detected
// seats; the view shrinks, rendezvous generations restart, and pre-arrived
// new-epoch barrier frames are re-checked for completion. Caller holds
// rdvMu.
func (t *Transport) evCheckLocked() {
	st := t.evs[t.epoch+1]
	if st == nil || st.closed || !st.self {
		return
	}
	vs := t.liveView.Load()
	me := t.cfg.Node
	for _, s := range vs.seats {
		if s == me || st.arrived[s] || st.union[s] || t.gone[s] == seatCrashed {
			continue
		}
		return
	}
	var agreed, newSeats []int
	selfOut := false
	for _, s := range vs.seats {
		if st.union[s] || t.gone[s] == seatCrashed {
			agreed = append(agreed, s)
			if s == me {
				selfOut = true
			}
		} else {
			newSeats = append(newSeats, s)
		}
	}
	st.agreed = agreed
	t.epoch = st.epoch
	t.rdvGen = 0
	for k := range t.rdv {
		if k.epoch < t.epoch {
			delete(t.rdv, k)
		}
	}
	if selfOut {
		t.selfEvicted = true
	} else {
		vnode := 0
		for i, s := range newSeats {
			if s == me {
				vnode = i
			}
		}
		t.liveView.Store(&viewState{seats: newSeats, vnode: vnode})
	}
	st.closed = true
	close(st.done)
	delete(t.evs, st.epoch)
	// A fast survivor's first new-epoch barrier frames may already have
	// accumulated; complete them against the shrunk view.
	for k, rst := range t.rdv {
		if k.epoch == t.epoch {
			t.rdvCheckLocked(k, rst)
		}
	}
}

// EvictNodes proposes the given virtual node ids (under the current view)
// as dead and blocks until the cluster commits the next membership epoch.
// It returns the agreed dead set in the same pre-agreement virtual
// numbering — possibly a superset of the proposal, when other survivors or
// crash detection contributed more seats. A node evicting itself proposes
// its own seat, keeps serving reads until the commit so survivors drain
// deterministically, and must call Fail afterwards.
func (t *Transport) EvictNodes(dead []int) ([]int, error) {
	const op = "wire EvictNodes"
	if t.aborted() {
		return nil, t.abortErr(nil, op)
	}
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	epoch := t.epoch + 1
	st := t.evGetLocked(epoch)
	for _, v := range dead {
		if v < 0 || v >= len(vs.seats) {
			t.rdvMu.Unlock()
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, op,
				"node %d out of range [0,%d)", v, len(vs.seats))
		}
		st.union[vs.seats[v]] = true
	}
	// Fold in every seat this node independently knows is gone, so the
	// agreement converges even when survivors detected different deaths.
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatAlive {
			st.union[s] = true
		}
	}
	st.self = true
	t.markLeavingLocked(st)
	words := make([]int64, t.evictWords())
	for s, dead := range st.union {
		if dead {
			words[s/64] |= 1 << (s % 64)
		}
	}
	var targets []int
	for _, s := range vs.seats {
		if s != t.cfg.Node && t.gone[s] != seatCrashed {
			targets = append(targets, s)
		}
	}
	t.evCheckLocked()
	t.rdvMu.Unlock()

	for _, s := range targets {
		if err := t.send(s, header{typ: frEvict, off: int64(epoch), count: int64(len(words))}, words, true); err != nil {
			if errors.Is(err, pgas.ErrTimeout) || t.departed[s].Load() {
				t.Abort(err.Error())
				return nil, err
			}
			t.peerCrashed(s, err) // raced with its death; accounts the seat
			continue
		}
	}
	timer := time.NewTimer(t.cfg.Timeout)
	defer timer.Stop()
	select {
	case <-st.done:
		t.rdvMu.Lock()
		agreed := st.agreed
		t.rdvMu.Unlock()
		out := make([]int, 0, len(agreed))
		for _, s := range agreed {
			for v, orig := range vs.seats {
				if orig == s {
					out = append(out, v)
				}
			}
		}
		return out, nil
	case <-t.abortCh:
		return nil, t.abortErr(nil, op)
	case <-timer.C:
		err := pgas.Errorf(pgas.ErrTimeout, -1, op,
			"node %d: membership epoch %d incomplete after %v", t.cfg.Node, epoch, t.cfg.Timeout)
		t.Abort(err.Error())
		return nil, err
	}
}

// applyEvict folds a peer's membership proposal for the given epoch.
func (t *Transport) applyEvict(nd int, epoch uint64, words []int64) {
	t.rdvMu.Lock()
	defer t.rdvMu.Unlock()
	if epoch <= t.epoch {
		return // stale duplicate of an already-committed epoch
	}
	st := t.evGetLocked(epoch)
	for s := 0; s < t.cfg.Nodes; s++ {
		if s/64 < len(words) && words[s/64]&(1<<(s%64)) != 0 {
			st.union[s] = true
		}
	}
	st.arrived[nd] = true
	t.markLeavingLocked(st)
	t.evCheckLocked()
}

// peerCrashed classifies a dead connection: mark the seat crashed, fail the
// open rendezvous generations and every pending request to that seat with
// EvictionError, and re-check a waiting membership agreement (a crash
// during the agreement counts as that seat's accounting).
func (t *Transport) peerCrashed(seat int, cause error) {
	t.rdvMu.Lock()
	vs := t.liveView.Load()
	inView := false
	for _, s := range vs.seats {
		if s == seat {
			inView = true
		}
	}
	if !inView || t.gone[seat] == seatCrashed || t.selfEvicted {
		t.rdvMu.Unlock()
		return
	}
	t.gone[seat] = seatCrashed
	t.failRdvLocked()
	evErr := t.evictErrLocked(seat)
	t.evCheckLocked()
	t.rdvMu.Unlock()

	t.pendMu.Lock()
	for id, pr := range t.pend {
		if pr.seat == seat {
			delete(t.pend, id)
			pr.ch <- wireResp{err: evErr}
		}
	}
	t.pendMu.Unlock()
}

// Abort poisons the transport: local waiters unblock with ErrTransport and
// every peer is told (best effort) so the whole cluster unwinds instead of
// waiting out deadlines. The first cause wins; a poisoned transport stays
// poisoned.
func (t *Transport) Abort(cause string) {
	t.abortOnce.Do(func() {
		t.causeMu.Lock()
		t.cause = cause
		t.causeMu.Unlock()
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

// --- local (self-node) data plane, shared with the serve paths ---

func (t *Transport) localGet(th *pgas.Thread, op string, w pgas.Win, off int64, dst []int64) error {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	data, ok := t.window(w, off, int64(len(dst)))
	if !ok {
		return pgas.Errorf(pgas.ErrMisuse, tid(th), op, "window %+v [%d,%d) not exposed", w, off, off+int64(len(dst)))
	}
	readWin(w, data, off, dst)
	return nil
}

func (t *Transport) localPut(th *pgas.Thread, op string, w pgas.Win, off int64, src []int64) error {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	data, ok := t.window(w, off, int64(len(src)))
	if !ok {
		return pgas.Errorf(pgas.ErrMisuse, tid(th), op, "window %+v [%d,%d) not exposed", w, off, off+int64(len(src)))
	}
	writeWin(w, data, off, src)
	return nil
}

func (t *Transport) localPutMin(th *pgas.Thread, op string, w pgas.Win, off int64, v int64) (bool, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	data, ok := t.window(w, off, 1)
	if !ok {
		return false, pgas.Errorf(pgas.ErrMisuse, tid(th), op, "window %+v off %d not exposed", w, off)
	}
	return minWin(data, off, v), nil
}

// readWin snapshots window words. SharedArray windows are concurrently
// touched by the owner's threads through the runtime's atomic fast paths,
// so they are read atomically; plan and reducer windows are only accessed
// in barrier-separated phases and copy plainly under rmu.
func readWin(w pgas.Win, data []int64, off int64, dst []int64) {
	if w.Kind == pgas.WinArray {
		for j := range dst {
			dst[j] = atomic.LoadInt64(&data[off+int64(j)])
		}
		return
	}
	copy(dst, data[off:off+int64(len(dst))])
}

func writeWin(w pgas.Win, data []int64, off int64, src []int64) {
	if w.Kind == pgas.WinArray {
		for j, v := range src {
			atomic.StoreInt64(&data[off+int64(j)], v)
		}
		return
	}
	copy(data[off:off+int64(len(src))], src)
}

func minWin(data []int64, off, v int64) bool {
	for {
		cur := atomic.LoadInt64(&data[off])
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(&data[off], cur, v) {
			return true
		}
	}
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

// evictWords is the length of an EVICT frame's dead-seat bitmap.
func (t *Transport) evictWords() int { return (t.cfg.Nodes + 63) / 64 }

func (t *Transport) applyBarrier(epoch, gen uint64, v float64) {
	t.rdvMu.Lock()
	if epoch < t.epoch {
		// Straggler from a committed epoch; its generation was already
		// failed and cleaned up.
		t.rdvMu.Unlock()
		return
	}
	k := rdvKey{epoch: epoch, gen: gen}
	st := t.rdvGetLocked(k)
	if v > st.max {
		st.max = v
	}
	st.got++
	t.rdvCheckLocked(k, st)
	t.rdvMu.Unlock()
}

var (
	_ pgas.Transport   = (*Transport)(nil)
	_ pgas.NodeEvictor = (*Transport)(nil)
)
