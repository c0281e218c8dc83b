// Deterministic transport-level fault injection.
//
// The chaos layer sits underneath the one-sided bulk transfers and the
// barrier: when armed, every remote GetBulk (and every engine-level
// coalesced transfer that consults TransportFault) draws a fault verdict —
// delay, duplicate, drop, or corrupt — and every barrier arrival may stall
// first. Verdicts come from a counter-mode hash of (seed, thread id,
// per-thread draw counter), so the fault schedule is a pure function of the
// seed and each thread's operation sequence: bit-for-bit reproducible
// across runs regardless of goroutine interleaving, with no shared RNG and
// no synchronization on the draw path.
//
// When disarmed (the default), the only cost is one nil-pointer check per
// bulk transfer and barrier — the hot path stays allocation-free and the
// benchmarks unchanged.
package pgas

import "pgasgraph/internal/sim"

// ChaosConfig parameterizes the deterministic fault injector. Rates are
// per-draw probabilities in [0, 1]; a transfer draws once and the verdict
// ladder is drop, corrupt, duplicate, delay, pass.
type ChaosConfig struct {
	// Seed selects the fault schedule. Same seed, same machine, same
	// program: same faults, bit for bit.
	Seed uint64
	// DropRate is the probability a remote bulk transfer is lost in
	// flight. Drops are detected (the modeled transport acks transfers)
	// and surface as ErrTransport, forcing a retransmit.
	DropRate float64
	// CorruptRate is the probability a transfer's payload is damaged in
	// flight. The modeled links are CRC-protected: corruption flips a
	// payload word *and* surfaces as ErrCorrupt, so it is always detected.
	CorruptRate float64
	// DupRate is the probability a transfer is delivered twice. One-sided
	// bulk transfers are idempotent, so a duplicate only charges redundant
	// wire time.
	DupRate float64
	// DelayRate is the probability a transfer is delayed by DelayNS
	// simulated nanoseconds (also the redundant-delivery charge of a
	// duplicate).
	DelayRate float64
	DelayNS   float64
	// StallRate is the probability a thread stalls for StallNS simulated
	// nanoseconds before a barrier arrival (a straggler; charged to the
	// wait category).
	StallRate float64
	StallNS   float64
	// KillRate is the probability a thread is permanently evicted at a
	// fault point (a barrier arrival or a remote transfer): the thread
	// panics with a classified ErrEvicted and never executes again on
	// this runtime. Unlike every other fault kind there is no retry —
	// recovery requires remapping the geometry and rolling back to a
	// checkpoint (package recover). Zero (the default, including in
	// DefaultChaos) disables eviction entirely; kill verdicts ride a
	// salted stream off the existing draw counters, so arming kills does
	// not shift any other fault kind's schedule.
	KillRate float64
	// MaxAttempts bounds transport retransmits and serve-phase replays.
	// At least 1 (a single attempt, no retries).
	MaxAttempts int
	// BackoffNS is the base simulated backoff charged before retry r,
	// doubling with each further attempt. The doubling is clamped at
	// chaosBackoffShiftCap, so no single retry ever charges more than
	// BackoffNS * 2^chaosBackoffShiftCap regardless of how large
	// MaxAttempts is.
	BackoffNS float64
}

// DefaultChaos returns a moderately hostile, recoverable configuration:
// every fault kind enabled at low single-digit rates with a retry budget
// deep enough that exhaustion is rare but reachable.
func DefaultChaos(seed uint64) ChaosConfig {
	return ChaosConfig{
		Seed:        seed,
		DropRate:    0.02,
		CorruptRate: 0.01,
		DupRate:     0.02,
		DelayRate:   0.05,
		DelayNS:     20e3,
		StallRate:   0.02,
		StallNS:     50e3,
		MaxAttempts: 8,
		BackoffNS:   10e3,
	}
}

// ChaosStats counts the injector's verdicts and the retries they caused.
type ChaosStats struct {
	Ops      int64 // verdict draws (transfers + barrier arrivals)
	Delays   int64
	Dups     int64
	Drops    int64
	Corrupts int64
	Stalls   int64
	Kills    int64 // permanent thread evictions
	Retries  int64 // backoff-and-retry rounds (transport and serve replays)
}

// Faults is the total number of injected faults across all kinds.
func (s *ChaosStats) Faults() int64 {
	return s.Delays + s.Dups + s.Drops + s.Corrupts + s.Stalls + s.Kills
}

// Add accumulates o into s; recovery supervisors use it to total the
// injector counters across eviction rounds (arming a remapped runtime
// resets the live counters).
func (s *ChaosStats) Add(o ChaosStats) {
	s.Ops += o.Ops
	s.Delays += o.Delays
	s.Dups += o.Dups
	s.Drops += o.Drops
	s.Corrupts += o.Corrupts
	s.Stalls += o.Stalls
	s.Kills += o.Kills
	s.Retries += o.Retries
}

// chaosThread is one thread's injector state. Each thread draws from its
// own counter-mode stream, so no synchronization is needed and the
// schedule does not depend on cross-thread timing.
type chaosThread struct {
	ops   uint64 // stream position: draws made so far
	stats ChaosStats
	_     [4]uint64 // keep neighboring threads' counters off one cache line
}

type chaosState struct {
	cfg ChaosConfig
	pts []chaosThread
}

// ArmChaos installs the fault injector. Must not be called while a Run
// region is in flight. Arming resets all chaos statistics and stream
// positions, so two runs armed with the same config see the same schedule.
func (rt *Runtime) ArmChaos(cfg ChaosConfig) {
	cfg.MaxAttempts = max(cfg.MaxAttempts, 1)
	rt.chaos = &chaosState{cfg: cfg, pts: make([]chaosThread, rt.s)}
}

// ChaosConfig returns the armed injector configuration and whether one is
// armed — recovery supervisors use it to re-arm a remapped runtime with
// the same seed (the determinism guarantee spans eviction rounds).
func (rt *Runtime) ChaosConfig() (ChaosConfig, bool) {
	if rt.chaos == nil {
		return ChaosConfig{}, false
	}
	return rt.chaos.cfg, true
}

// ChaosStats sums the per-thread injector statistics. Zero when disarmed.
func (rt *Runtime) ChaosStats() ChaosStats {
	var total ChaosStats
	if rt.chaos == nil {
		return total
	}
	for i := range rt.chaos.pts {
		total.Add(rt.chaos.pts[i].stats)
	}
	return total
}

// chaosStallSalt separates the barrier-stall stream from the transfer
// stream so tuning one rate never shifts the other's verdicts.
const chaosStallSalt = 0xA5A5A5A55A5A5A5A

// chaosKillSalt separates the eviction stream from both the transfer and
// the stall streams: kill verdicts reuse the draw counter the enclosing
// fault point already advanced, so KillRate can be armed or tuned without
// moving a single drop/corrupt/dup/delay/stall verdict.
const chaosKillSalt = 0x517CC1B727220A95

// chaosHash is a splitmix64-style mix of (seed, thread, draw counter).
func chaosHash(seed uint64, thread int, op uint64) uint64 {
	x := seed ^ (uint64(thread)+1)*0x9E3779B97F4A7C15 ^ op*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// chaosUnit maps a hash to [0, 1).
func chaosUnit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// TransportFault draws the fault verdict for one remote bulk transfer
// whose received payload is payload (nil when the payload cannot be
// damaged in place; the verdict ladder is unchanged). Returns nil on pass
// — possibly after charging a delay or a duplicate delivery — or a
// classified error: ErrTransport for a dropped transfer (payload must be
// ignored) or ErrCorrupt for a damaged one (a payload word has been
// flipped in place, and the damage was CRC-detected). Callers retransmit
// on error through Retry. No-op returning nil when chaos is disarmed.
func (th *Thread) TransportFault(cat sim.Category, payload []int64) error {
	ch := th.rt.chaos
	if ch == nil {
		return nil
	}
	cfg := &ch.cfg
	ct := &ch.pts[th.ID]
	ct.ops++
	ct.stats.Ops++
	th.chaosKill(ch, ct, "transfer")
	h := chaosHash(cfg.Seed, th.ID, ct.ops)
	u := chaosUnit(h)
	switch {
	case u < cfg.DropRate:
		ct.stats.Drops++
		return Errorf(ErrTransport, th.ID, "transfer", "message dropped (draw %d)", ct.ops)
	case u < cfg.DropRate+cfg.CorruptRate:
		ct.stats.Corrupts++
		if len(payload) > 0 {
			j := int(h % uint64(len(payload)))
			payload[j] ^= int64(h>>17) | 1
		}
		return Errorf(ErrCorrupt, th.ID, "transfer", "payload failed checksum (draw %d)", ct.ops)
	case u < cfg.DropRate+cfg.CorruptRate+cfg.DupRate:
		// Idempotent redelivery: same words to the same slots, so the
		// only observable effect is redundant wire time.
		ct.stats.Dups++
		th.Clock.Charge(cat, cfg.DelayNS)
		return nil
	case u < cfg.DropRate+cfg.CorruptRate+cfg.DupRate+cfg.DelayRate:
		ct.stats.Delays++
		th.Clock.Charge(cat, cfg.DelayNS)
		return nil
	}
	return nil
}

// chaosBackoffShiftCap clamps the exponential backoff doubling: attempt
// chaosBackoffShiftCap+1 and beyond all charge BackoffNS << chaosBackoffShiftCap.
// The cap keeps the charged backoff finite even when MaxAttempts is set far
// above DefaultChaos's budget (a 2^16 multiplier already dwarfs any modeled
// transfer).
const chaosBackoffShiftCap = 16

// Retry is the one chaos retry loop: GetBulk's retransmit and the
// collectives' serve replay both run through it. It calls try until an
// attempt returns nil, charging the exponential backoff and counting one
// retry before each further attempt — so Retries counts
// retries actually taken, never a final failing attempt. Once the armed
// budget (ChaosConfig.MaxAttempts) is spent it raises a classified
// ErrTimeout through the barrier-poisoning path, with the op and detail
// prefix gaveUp names (called only then, so a clean attempt formats
// nothing). With chaos disarmed no fault is injected, and a failed attempt
// — a real transport failure — is raised as it is: only injected faults
// are retried.
func (th *Thread) Retry(try func() error, gaveUp func() (op, what string)) {
	for attempt := 1; ; attempt++ {
		err := try()
		switch {
		case err == nil:
			return
		case th.rt.chaos == nil:
			panic(err)
		case attempt >= th.rt.chaos.cfg.MaxAttempts:
			op, what := gaveUp()
			panic(Errorf(ErrTimeout, th.ID, op, "%s after %d attempts: %v", what, attempt, err))
		}
		th.chaosBackoff(attempt)
	}
}

// chaosBackoff charges Retry's exponential backoff after failed attempt
// attempt and counts one retry.
func (th *Thread) chaosBackoff(attempt int) {
	ch := th.rt.chaos
	shift := min(max(attempt-1, 0), chaosBackoffShiftCap)
	th.Clock.Charge(sim.CatComm, ch.cfg.BackoffNS*float64(int64(1)<<shift))
	ch.pts[th.ID].stats.Retries++
}

// chaosStall draws the straggler verdict for one barrier arrival, charging
// the stall to the wait category before the thread rendezvous, then the
// eviction verdict for the same arrival.
func (th *Thread) chaosStall(ch *chaosState) {
	cfg := &ch.cfg
	ct := &ch.pts[th.ID]
	ct.ops++
	ct.stats.Ops++
	h := chaosHash(cfg.Seed^chaosStallSalt, th.ID, ct.ops)
	if chaosUnit(h) < cfg.StallRate {
		ct.stats.Stalls++
		th.Clock.Charge(sim.CatWait, cfg.StallNS)
	}
	th.chaosKill(ch, ct, "Barrier")
}

// chaosKill draws the eviction verdict for the fault point whose draw
// counter ct.ops already names. A kill panics with a classified
// ErrEvicted: the thread is gone for good, the barrier is poisoned by the
// normal path, and RunE aggregates every kill in the region into one
// EvictionError. Because the thread never executes past this point, its
// draw stream ends here — every verdict it produced up to the kill is
// already fixed, so the surviving threads' schedules are untouched.
func (th *Thread) chaosKill(ch *chaosState, ct *chaosThread, op string) {
	cfg := &ch.cfg
	if cfg.KillRate <= 0 {
		return
	}
	h := chaosHash(cfg.Seed^chaosKillSalt, th.ID, ct.ops)
	if chaosUnit(h) < cfg.KillRate {
		ct.stats.Kills++
		panic(Errorf(ErrEvicted, th.ID, op, "thread killed (draw %d)", ct.ops))
	}
}
