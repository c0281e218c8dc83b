// Package verify is the differential verification harness: it runs every
// distributed kernel against its sequential oracle — and selected kernel
// pairs against each other — across a randomized matrix of machine
// configurations, collective option vectors, and graph families.
//
// The battery (Checks) is rows of data over the serve kernel registry, and
// runCheck is the one way to run a row. A row's Kernel is run through
// serve.RunKernel on the trial's inputs and held to the registry row's own
// oracle (serve.Verify); its Twin, a second registry kernel run on the same
// cluster, must reproduce Kernel's labels or ranks bit for bit; Canonical
// demands the labels equal seq.CC exactly; Wire puts the row in the subset
// that must pass identically over the socket transport. Three kinds of row
// keep a Run func because there is no registry row to name: the collective
// laws (they test the collectives, not a kernel), the serve/* checks (they
// test the Service and the dispatch seam itself) and cc/spanning-forest (the
// forest kernel without the Euler tour the registry row appends). Where a
// row runs is an Env:
// collective fault, chaos schedule, recovery supervisor, in process or as a
// hosted wire cluster or on a connected seat.
//
// Every soak is a Soak row (soaks.go) run by the one loop of Soak.Run: it
// samples a trial, picks the battery rows to run on it, runs each in the
// row's Env, judges the run by the row's verdict and folds it into one
// Report. The rows:
//
//   - Clean: every applicable check, failures shrunk (verifyrun's default).
//   - Mutations: one row per collective fault, running the mutation-safe
//     checks until one catches it; a fault that escapes fails the self-test.
//   - Chaos, ChaosKill: one check per trial under a sampled fault schedule
//     (with thread kills, under the recovery supervisor), the rotation
//     passing over racy rows; recovered or classified, never wrong or hung.
//   - WireClean, WireChaos, WireKill: the Wire rows on hosted wire clusters
//     (one goroutine per node, the full framing, CRC and replica-sync
//     path) — clean, against the in-process twin under the same schedule,
//     and supervised through node evictions.
//   - Seat: the Wire rows as one node of a multi-process cluster
//     (cmd/pgasnode).
//
// Three layers of evidence back each run:
//
//  1. Oracle checks: each kernel's output is compared exactly against a
//     sequential reference (internal/seq) on the same input.
//  2. Differential checks: independent kernels solving the same problem
//     (SV vs coalesced CC, CGM vs Wyllie ranking) must agree on the same
//     simulated cluster, catching bugs a weak oracle would miss.
//  3. Mutation self-test: known faults injected into the collective layer
//     (see collective.Fault) must each be caught by the battery,
//     certifying the harness can actually detect the class of bugs it
//     exists to find.
//
// Failures shrink to a minimal (graph, machine, options) triple before
// reporting, so a counterexample is small enough to debug by hand.
package verify

import (
	"fmt"
	"io"
	"time"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/xrand"
)

// A Soak is one row of the soak table: how its trials are drawn, which
// battery rows run on each, where, and how a run is judged. Rows are values:
// a caller copies one, sets Trials (and, for Seat, Geometries and Env.Seat)
// and runs it.
type Soak struct {
	// Name labels the row's summary and progress lines.
	Name string
	// Salt keys the row's sampling: trial r draws from the seed split by
	// Salt ^ r, so rows keep independent, replayable streams.
	Salt uint64
	// Trials is the number of trials the row samples.
	Trials int
	// Geometries, when set, rotate onto the sampled trials (round % len) and
	// pin them to the block scheme, the only one a wire cluster runs.
	Geometries [][2]int
	// Env is where every check of the row runs.
	Env Env

	sample  func(rng *xrand.Rand, round int, maxN int64) *Trial // nil: sampleTrial
	chaos   bool                                                // draw a fault schedule per trial; kills iff Env.Recover
	watched bool                                                // run under Config.Watchdog
	only    func(Check) bool                                    // the battery subset (nil: all)
	pick    func(battery []Check, round int, t *Trial) (run []Check, skipped int)
	verdict func(rec *Record, c Check, env Env, ran *checkResult)
	fold    func(h *digest, rec *Record) // nil: foldRecord
	halt    bool                         // stop at the first run that does not pass
	detect  bool                         // the row fails unless a run is Detected
}

// Config is what a run shares across rows.
type Config struct {
	// Seed drives all sampling; a given (Seed, row, Trials, MaxN) replays
	// exactly.
	Seed uint64
	// MaxN bounds sampled input sizes (vertices, list nodes).
	MaxN int64
	// Scheme, when non-nil, pins every sampled trial to one partition scheme
	// instead of the default rotation. The scheme draw still happens, so the
	// sampling stream is unchanged; digests compare only between runs that
	// pin the same scheme.
	Scheme *pgas.SchemeKind
	// Checks restricts the battery to these names (nil = every row); see
	// Named.
	Checks map[string]bool
	// Shrink bounds the runs spent shrinking each failure of a clean
	// in-process run. Zero disables shrinking.
	Shrink int
	// Watchdog bounds one run of a watched row. Defaults to 90s.
	Watchdog time.Duration
	// Log, when non-nil, receives one progress line per run.
	Log io.Writer
}

// Record is one check run of a soak.
type Record struct {
	// Round is the trial's index within the row; Check the battery row run.
	Round int
	Check string
	// Outcome places the run on the ladder; Err is the failure, the
	// classified error or the caught mutation.
	Outcome Outcome
	Err     error
	// Stats counts the faults injected and retries spent.
	Stats pgas.ChaosStats
	// Rollbacks and Evicted are the recovery supervisor's history: the
	// checkpoint rollbacks taken and the thread ids evicted.
	Rollbacks int
	Evicted   []int
	// Trial is the sampled matrix point; Shrunk the minimal failing trial
	// found from it in ShrinkRuns runs (nil when not shrunk).
	Trial      *Trial
	Shrunk     *Trial
	ShrinkRuns int
}

func (r *Record) line() string {
	s := fmt.Sprintf("%d: %s %s %dx%d faults=%d retries=%d", r.Round, r.Check, r.Outcome,
		r.Trial.Machine.Nodes, r.Trial.Machine.ThreadsPerNode, r.Stats.Faults(), r.Stats.Retries)
	if r.Stats.Kills > 0 || r.Rollbacks > 0 {
		s += fmt.Sprintf(" kills=%d rollbacks=%d evicted=%v", r.Stats.Kills, r.Rollbacks, r.Evicted)
	}
	if r.Err != nil && r.Outcome != Classified {
		s += fmt.Sprintf(" err=%v", r.Err)
	}
	return s
}

// Report aggregates one row's run.
type Report struct {
	// Soak is the row's name.
	Soak string
	// Trials counts the trials sampled, Checks the check runs, Skipped the
	// picked rows gated off by Applicable.
	Trials, Checks, Skipped int
	// Count tallies the runs per outcome.
	Count [numOutcomes]int
	// Stats sums the runs' fault counters, Rollbacks their rollbacks.
	Stats     pgas.ChaosStats
	Rollbacks int
	// Records holds every run in order.
	Records []Record

	// digest is the fold of every run's replay-stable fields: two runs of
	// the same row and Config produce the same value (.github/digests pins
	// CI's; String prints it).
	digest digest
	detect bool
}

// OK reports whether the row ran a check, none was wrong or hung, and — on
// a mutation row — one caught the fault. Classified failures are
// acceptable: the runtime failed loudly.
func (r *Report) OK() bool {
	return r.Checks > 0 && r.Count[Wrong] == 0 && r.Count[Hang] == 0 && (r.Count[Detected] > 0) == r.detect
}

// String is the row's summary line.
func (r *Report) String() string {
	s := fmt.Sprintf("%s trials=%d checks=%d skipped=%d", r.Soak, r.Trials, r.Checks, r.Skipped)
	for o, n := range r.Count {
		s += fmt.Sprintf(" %s=%d", Outcome(o), n)
	}
	return s + fmt.Sprintf(" faults=%d retries=%d kills=%d rollbacks=%d digest=%#x",
		r.Stats.Faults(), r.Stats.Retries, r.Stats.Kills, r.Rollbacks, uint64(r.digest))
}

// Run runs the row: each trial is sampled and its checks picked; each check
// runs (under the watchdog where the row is watched), is judged by the row's
// verdict — a failing clean in-process run shrunk — then recorded, counted
// and folded into the digest.
func (s Soak) Run(cfg Config) *Report {
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 90 * time.Second
	}
	sample, fold := s.sample, s.fold
	if sample == nil {
		sample = sampleTrial
	}
	if fold == nil {
		fold = foldRecord
	}
	watchdog := time.Duration(0)
	if s.watched {
		watchdog = cfg.Watchdog
	}
	checks := battery(s.only, cfg.Checks)
	rep := &Report{Soak: s.Name, digest: digestSeed, detect: s.detect}
	for round := 0; round < s.Trials; round++ {
		rng := xrand.New(cfg.Seed).Split(s.Salt ^ uint64(round))
		t := sample(rng, round, cfg.MaxN)
		if cfg.Scheme != nil {
			t.Scheme = *cfg.Scheme
		}
		if len(s.Geometries) > 0 {
			g := s.Geometries[round%len(s.Geometries)]
			t = t.withMachine(g[0], g[1])
			t.Scheme = pgas.SchemeBlock
		}
		env := s.Env
		if s.chaos {
			ccfg := sampleChaosConfig(rng, env.Recover != nil)
			env.Chaos = &ccfg
		}
		rep.Trials++
		run, skipped := s.pick(checks, round, t)
		rep.Skipped += skipped
		for _, c := range run {
			rec := Record{Round: round, Check: c.Name, Trial: t}
			if ran, hung := watched(watchdog, c, t, env); hung {
				rec.Outcome, rec.Err = Hang, fmt.Errorf("still running after the %v watchdog", cfg.Watchdog)
			} else {
				s.verdict(&rec, c, env, ran)
			}
			if rec.Outcome == Wrong && cfg.Shrink > 0 && env == (Env{}) {
				rec.Shrunk, rec.ShrinkRuns = shrink(c, t, cfg.Shrink)
				if err := runCheck(c, rec.Shrunk, env).Err; err != nil {
					rec.Err = err
				}
			}
			rep.Checks++
			rep.Count[rec.Outcome]++
			rep.Stats.Add(rec.Stats)
			rep.Rollbacks += rec.Rollbacks
			fold(&rep.digest, &rec)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "%s %s\n", s.Name, rec.line())
			}
			rep.Records = append(rep.Records, rec)
			if s.halt && rec.Outcome != Passed {
				return rep
			}
		}
	}
	return rep
}
