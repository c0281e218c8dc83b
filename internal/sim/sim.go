// Package sim provides simulated-time accounting for the PGAS runtime.
//
// The reproduction executes the paper's algorithms for real — data moves,
// answers are computed and verified — but *time* is modeled: every runtime
// operation charges simulated nanoseconds to the issuing thread's clock
// according to the machine model, and barriers synchronize clocks to the
// maximum. The simulated makespan of a run is the maximum clock over all
// threads at the end.
//
// This substitutes for the paper's 16-node P575+ cluster (see DESIGN.md §2):
// the cost terms implement the complexity analysis of the paper's §III
// (equations 3-5) so that the relative shapes of the figures are preserved.
package sim

import (
	"math"

	"pgasgraph/internal/machine"
)

// Category labels a charge with the execution-time category used in the
// paper's Figure 5/6 breakdown.
type Category int

// Categories, in the paper's order. CatWait is ours: time a thread spends
// blocked at a barrier waiting for stragglers (the paper folds it into the
// categories of the slowest thread; we track it separately so breakdowns
// remain per-thread meaningful).
const (
	CatComm      Category = iota // upc_memget/upc_memput bulk transfers
	CatSort                      // sorting requests by target thread/block
	CatCopy                      // reading/writing local portions of shared arrays
	CatIrregular                 // permuting retrieved elements to request order
	CatSetup                     // SMatrix/PMatrix all-to-all setup
	CatWork                      // allocation, init, computing target thread ids
	CatWait                      // barrier wait (not in the paper's six)
	NumCategories
)

var categoryNames = [NumCategories]string{
	"comm", "sort", "copy", "irregular", "setup", "work", "wait",
}

// String returns the lower-case category name.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return "unknown"
	}
	return categoryNames[c]
}

// Breakdown is simulated nanoseconds per category.
type Breakdown [NumCategories]float64

// Total returns the sum over all categories.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// Add accumulates other into b.
func (b *Breakdown) Add(other *Breakdown) {
	for i := range b {
		b[i] += other[i]
	}
}

// Scale multiplies every category by f.
func (b *Breakdown) Scale(f float64) {
	for i := range b {
		b[i] *= f
	}
}

// Sub returns b minus other, category-wise.
func (b *Breakdown) Sub(other *Breakdown) Breakdown {
	var out Breakdown
	for i := range b {
		out[i] = b[i] - other[i]
	}
	return out
}

// Clock is the simulated clock and counters of one thread. It is owned by a
// single goroutine; only barrier synchronization (performed while all
// threads are quiescent) touches it from outside.
type Clock struct {
	// NS is the thread's current simulated time in nanoseconds.
	NS float64
	// ByCategory accumulates charged time per category.
	ByCategory Breakdown
	// Messages and Bytes count network messages sent by this thread.
	Messages int64
	Bytes    int64
	// RemoteOps counts one-sided remote operations (of any size).
	RemoteOps int64
	// CacheMisses estimates the number of modeled cache misses.
	CacheMisses float64
}

// Charge advances the clock by ns and attributes the time to cat.
// Negative charges are ignored.
func (c *Clock) Charge(cat Category, ns float64) {
	if ns <= 0 {
		return
	}
	c.NS += ns
	c.ByCategory[cat] += ns
}

// AdvanceTo moves the clock forward to at least t, attributing the gap to
// CatWait. It never moves the clock backward.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.NS {
		c.ByCategory[CatWait] += t - c.NS
		c.NS = t
	}
}

// Reset zeroes the clock and all counters.
func (c *Clock) Reset() {
	*c = Clock{}
}

// Model computes operation costs from a machine configuration. The methods
// implement the cost terms of the paper's §III and §IV analyses. Model is
// immutable and safe for concurrent use; it travels by pointer, so a charge
// does not copy the configuration.
type Model struct {
	cfg machine.Config
}

// NewModel returns a cost model over cfg.
func NewModel(cfg machine.Config) *Model { return &Model{cfg: cfg} }

// Config returns the underlying machine configuration, read-only: it is
// the model's own copy, handed out by pointer because callers on charge
// paths read one field of it per peer.
func (m *Model) Config() *machine.Config { return &m.cfg }

// ElemBytes is the modeled element width: every shared-array element is a
// 64-bit word, matching the paper's D arrays.
const ElemBytes = 8

// SeqScan returns the cost of sequentially accessing k elements
// (equation 4's prefetch/bulk-transfer term): L_M + 8k/B_M.
func (m *Model) SeqScan(k int64) float64 {
	if k <= 0 {
		return 0
	}
	return m.cfg.MemLatency + float64(k*ElemBytes)/m.cfg.MemBandwidth
}

// MissFraction returns the steady-state probability that a uniformly random
// access into a resident block of blockElems elements misses the per-thread
// cache. Zero when the block fits.
func (m *Model) MissFraction(blockElems int64) float64 {
	bytes := float64(blockElems * ElemBytes)
	z := float64(m.cfg.CacheBytes)
	if bytes <= z {
		return 0
	}
	return 1 - z/bytes
}

// irregularMisses estimates the cache misses of k random accesses into a
// block of blockElems elements: the resident fraction pays compulsory
// misses once, the remainder misses at the steady-state rate (§IV.B).
func (m *Model) irregularMisses(k, blockElems int64) float64 {
	if k <= 0 || blockElems <= 0 {
		return 0
	}
	frac := m.MissFraction(blockElems)
	resident := math.Min(float64(k), float64(blockElems)) * (1 - frac)
	return float64(k)*frac + resident
}

// missCost prices one random-access miss, paging a fraction of misses to
// disk when the working set exceeds the node's memory (the regime the
// paper's §VI closing argument concerns for single-node runs).
func (m *Model) missCost(blockElems int64) float64 {
	dram := m.cfg.MemLatency + m.cfg.TLBMissCost
	bytes := float64(blockElems * ElemBytes)
	mem := float64(m.cfg.NodeMemoryBytes)
	if bytes <= mem {
		return dram
	}
	diskFrac := 1 - mem/bytes
	pageBytes := 4096.0
	disk := m.cfg.DiskLatency + pageBytes/m.cfg.DiskBandwidth
	return dram*(1-diskFrac) + disk*diskFrac
}

// IrregularAccess returns (cost, misses) of k random single-element
// accesses into a block of blockElems elements:
// misses*L_M + k*(8/B_M + op).
func (m *Model) IrregularAccess(k, blockElems int64) (ns, misses float64) {
	if k <= 0 {
		return 0, 0
	}
	misses = m.irregularMisses(k, blockElems)
	ns = misses*m.missCost(blockElems) + float64(k)*(ElemBytes/m.cfg.MemBandwidth+m.cfg.OpCost)
	return ns, misses
}

// IrregularAccessDistinct returns (cost, misses) of k accesses into a
// block of blockElems elements when only distinct of them touch different
// locations: every distinct location pays one compulsory miss, and the
// k-distinct revisits miss at the block's steady-state rate (a revisit of
// a hot location in a cache-resident block is free — the paper notes
// exactly this for D[0] on SMPs, §V — but a revisit within a block far
// larger than the cache has likely been evicted).
func (m *Model) IrregularAccessDistinct(k, distinct, blockElems int64) (ns, misses float64) {
	if k <= 0 {
		return 0, 0
	}
	if distinct > k {
		distinct = k
	}
	misses = float64(distinct) + float64(k-distinct)*m.MissFraction(blockElems)
	ns = misses*m.missCost(blockElems) + float64(k)*(ElemBytes/m.cfg.MemBandwidth+m.cfg.OpCost)
	return ns, misses
}

// DensePermute returns (cost, misses) of writing a k-element permutation
// into a k-element buffer where every slot is written exactly once: with
// write-combining lines fill completely, so the latency term pays one miss
// per cache line rather than per element.
func (m *Model) DensePermute(k int64) (ns, misses float64) {
	if k <= 0 {
		return 0, 0
	}
	lineElems := int64(m.cfg.CacheLineBytes / ElemBytes)
	if lineElems < 1 {
		lineElems = 1
	}
	misses = float64((k + lineElems - 1) / lineElems)
	ns = misses*m.cfg.MemLatency + float64(k)*(ElemBytes/m.cfg.MemBandwidth+m.cfg.OpCost)
	return ns, misses
}

// SelectionPasses returns the cost of the virtual-thread simulation's
// group phase: each of the vt virtual blocks makes one streaming pass over
// the k request keys (4-byte owner ids) selecting its own (§IV.B, "each
// thread simulates t' virtual threads"). Linear in vt — the rising arm of
// Figure 4's U-curve.
func (m *Model) SelectionPasses(k int64, vt int) float64 {
	if k <= 0 || vt <= 0 {
		return 0
	}
	// Read-only streams run at roughly twice the mixed read/write
	// bandwidth the SeqScan term models.
	return float64(vt) * (m.cfg.MemLatency + float64(4*k)/(2*m.cfg.MemBandwidth))
}

// Ops returns the cost of k simple local operations.
func (m *Model) Ops(k int64) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * m.cfg.OpCost
}

// Intrinsics returns the cost of k runtime-intrinsic invocations (owner-id
// computation before the "id" optimization).
func (m *Model) Intrinsics(k int64) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * m.cfg.IntrinsicCost
}

// SharedPtrAccess returns the cost of k accesses to the local portion of a
// shared array through shared (fat) pointers; the "localcpy" optimization
// replaces it with plain accesses costing Ops(k) on top of the memory terms.
func (m *Model) SharedPtrAccess(k int64) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * m.cfg.SharedPtrCost
}

// Message returns the cost of one network message of the given payload,
// issued from a node whose sharers threads share the adapter: the latency
// term is paid once; the software overhead and wire time serialize across
// the sharing threads (§III's blocking-communication serialization).
// RDMA-capable configurations replace the software overhead for messages at
// or above the RDMA threshold.
func (m *Model) Message(bytes int64, sharers int) float64 {
	if sharers < 1 {
		sharers = 1
	}
	o := m.cfg.MsgOverhead
	if m.cfg.RDMA && bytes >= m.cfg.RDMAThresholdBytes {
		o = m.cfg.RDMAOverhead
	}
	ser := 1.0
	if m.cfg.NICSerialization {
		ser = float64(sharers)
	}
	return m.cfg.NetLatency + ser*(o+float64(bytes)/m.cfg.NetBandwidth)
}

// congestion returns (s/threshold)^exp past the threshold, else 1.
func (m *Model) congestion(totalThreads int, exp float64) float64 {
	if m.cfg.A2AThreshold <= 0 || totalThreads <= m.cfg.A2AThreshold {
		return 1
	}
	return math.Pow(float64(totalThreads)/float64(m.cfg.A2AThreshold), exp)
}

// smallMsgFactor returns the congestion multiplier for the naive
// translation's per-element remote traffic — the paper's "network
// congestion incurred by numerous small messages" (§III). It grows with
// the milder scattered-traffic exponent.
func (m *Model) smallMsgFactor(totalThreads int) float64 {
	return m.congestion(totalThreads, m.cfg.SmallOpCongestionExp)
}

// a2aBurstFactor returns the congestion multiplier for the synchronized
// SMatrix/PMatrix all-to-all burst — the cliff the paper measures at 16
// threads per node (§VI).
func (m *Model) a2aBurstFactor(totalThreads int) float64 {
	return m.congestion(totalThreads, m.cfg.A2AExponent)
}

// SmallOp returns the cost of one single-element one-sided operation
// (wireLegs wire latencies), inflated by small-message congestion — the
// cost the naive translation pays per irregular access. Blocking small
// operations from the threads of one node serialize through the node's
// communication stack (§III: "the messages from the t threads on one node
// are serialized"), so the software term scales with sharers.
func (m *Model) SmallOp(sharers, totalThreads, wireLegs int) float64 {
	if sharers < 1 {
		sharers = 1
	}
	base := float64(wireLegs)*m.cfg.NetLatency +
		float64(sharers)*(m.cfg.SmallOpOverhead+ElemBytes/m.cfg.NetBandwidth)
	return base * m.smallMsgFactor(totalThreads)
}

// SmallRemoteWrite returns the cost of one single-element remote store
// during a burst in which every one of totalThreads threads writes to every
// other thread (the SMatrix/PMatrix setup). Small puts are asynchronous and
// pipeline through the adapter, so no NIC serialization term applies; the
// congestion factor does.
func (m *Model) SmallRemoteWrite(sharers, totalThreads int) float64 {
	o := m.cfg.MsgOverhead
	base := m.cfg.NetLatency + o + ElemBytes/m.cfg.NetBandwidth
	return base * m.a2aBurstFactor(totalThreads)
}

// Barrier returns the cost of one full barrier over s threads.
func (m *Model) Barrier(s int) float64 {
	return m.cfg.BarrierBase + m.cfg.BarrierPerThread*float64(s)
}

// Lock returns the cost of one acquire+release pair.
func (m *Model) Lock(contended bool) float64 {
	if contended {
		return m.cfg.LockBase + m.cfg.LockContended
	}
	return m.cfg.LockBase
}

// LinearPenalty returns the multiplier applied to bulk-transfer time when
// the peer-service schedule is the naive linear order instead of circular.
func (m *Model) LinearPenalty() float64 { return m.cfg.LinearSchedulePenalty }
