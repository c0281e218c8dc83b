package verify

import (
	"fmt"
	"slices"
	"strings"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	recovery "pgasgraph/internal/recover"
	"pgasgraph/internal/xrand"
)

// The soak table. The salts, geometries and picks are what the digests
// pinned in .github/digests were built from; changing one moves them.
var (
	// Clean is the differential matrix: every applicable check on every
	// trial, each failure shrunk to a minimal trial.
	Clean = Soak{Name: "clean", pick: every, verdict: oracle}
	// Chaos runs one check per trial under a sampled fault schedule: every
	// run must recover with the oracle's answer or fail loudly classified.
	// A hang, a silently wrong answer or an unclassified panic is a bug in
	// the runtime's recovery machinery.
	Chaos = Soak{Name: "chaos", Salt: 0xC4A05, chaos: true, watched: true, pick: rotation, verdict: ladder}
	// ChaosKill is Chaos with permanent thread kills, every run under the
	// recovery supervisor's defaults: an evicted run must end rolled back
	// or classified.
	ChaosKill = Soak{Name: "chaos-kill", Salt: 0xC4A05, Env: Env{Recover: &recovery.Config{}},
		chaos: true, watched: true, pick: rotation, verdict: ladder}
	// WireClean runs the Wire rows on hosted wire clusters of rotating
	// multi-node shapes.
	WireClean = Soak{Name: "wire-clean", Salt: 0x31e70, Geometries: wireGeometries, Env: Env{Wire: true},
		watched: true, only: wireRow, pick: every, verdict: oracle}
	// WireChaos runs one Wire row per trial on a hosted cluster and in
	// process under the same schedule: the backends must agree.
	WireChaos = Soak{Name: "wire-chaos", Salt: 0xc04f, Geometries: wireGeometries, Env: Env{Wire: true},
		chaos: true, watched: true, only: wireRow, pick: cycle, verdict: dualBackend}
	// WireKill is the kill rotation on hosted clusters, every node under the
	// supervisor. MinThreads 1 because wire eviction is node-granular:
	// losing one node of a small cluster can halve the geometry.
	WireKill = Soak{Name: "wire-kill", Salt: 0x417c1, Geometries: [][2]int{{3, 1}, {2, 2}, {4, 1}},
		Env:   Env{Wire: true, Recover: &recovery.Config{MinThreads: 1}},
		chaos: true, watched: true, only: wireRow, pick: cycle, verdict: survivors, fold: foldSurvivors}
	// Seat is WireClean's trial stream run as one node of a multi-process
	// cluster (cmd/pgasnode sets Geometries and Env.Seat). It stops at the
	// first failure: the other seats cannot continue past it.
	Seat = Soak{Name: "seat", Salt: 0x31e70, only: wireRow, pick: every, verdict: oracle, halt: true}
	// Mutations holds one row per collective fault: the mutation-safe rows
	// run under the fault until one catches it. A fault that escapes every
	// trial fails the self-test — the test of the tests.
	Mutations = mutations()
)

func mutations() (rows []Soak) {
	for _, f := range collective.AllFaults() {
		if f != collective.FaultNone {
			rows = append(rows, Soak{Name: "mutate/" + f.String(), Salt: uint64(f) << 16,
				Env: Env{Fault: f}, sample: mutationTrial, only: func(c Check) bool { return c.Mutation },
				pick: every, verdict: detection, halt: true, detect: true})
		}
	}
	return rows
}

func wireRow(c Check) bool { return c.Wire }

// wireGeometries are the hosted-cluster shapes WireClean and WireChaos
// rotate through.
var wireGeometries = [][2]int{{2, 2}, {3, 1}, {2, 1}, {2, 4}}

// battery returns the rows of Checks in only (nil: all) and in names (nil:
// all), in battery order.
func battery(only func(Check) bool, names map[string]bool) []Check {
	var out []Check
	for _, c := range Checks() {
		if (only == nil || only(c)) && (names == nil || names[c.Name]) {
			out = append(out, c)
		}
	}
	return out
}

// Named turns a comma-separated list of battery row names into a
// Config.Checks filter ("" is nil: every row), refusing by name one that is
// not a row or, with wire, not a Wire row.
func Named(list string, wire bool) (map[string]bool, error) {
	if list == "" {
		return nil, nil
	}
	names := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(Checks(), func(c Check) bool { return c.Name == name })
		switch {
		case i < 0:
			return nil, fmt.Errorf("unknown check %q (see verifyrun -list)", name)
		case wire && !Checks()[i].Wire:
			return nil, fmt.Errorf("check %q is not in the wire battery (see verifyrun -list)", name)
		}
		names[name] = true
	}
	return names, nil
}

// every picks each applicable row, counting the rest skipped.
func every(battery []Check, _ int, t *Trial) (run []Check, skipped int) {
	for _, c := range battery {
		if c.Applicable(t) {
			run = append(run, c)
		} else {
			skipped++
		}
	}
	return run, skipped
}

// rotation picks the first applicable row at or after round (mod len).
func rotation(battery []Check, round int, t *Trial) ([]Check, int) {
	for j := range battery {
		if c := battery[(round+j)%len(battery)]; c.Applicable(t) {
			return []Check{c}, 0
		}
	}
	return nil, 0
}

// cycle picks row round (mod len) when it applies.
func cycle(battery []Check, round int, t *Trial) ([]Check, int) {
	if c := battery[round%len(battery)]; c.Applicable(t) {
		return []Check{c}, 0
	}
	return nil, 1
}

// sampleChaosConfig draws a fault schedule for one trial: the default rates
// scaled by a sampled hostility factor, with an occasional starved retry
// budget so the classified-failure path gets exercised too. With kill set it
// additionally samples a thread-eviction rate; the extra draw happens only
// then, so the kill-free rows keep their historical streams bit for bit.
func sampleChaosConfig(rng *xrand.Rand, kill bool) pgas.ChaosConfig {
	cfg := pgas.DefaultChaos(rng.Uint64())
	scale := []float64{0.25, 1, 1, 2, 4}[rng.Intn(5)]
	cfg.DropRate *= scale
	cfg.CorruptRate *= scale
	cfg.DupRate *= scale
	cfg.DelayRate *= scale
	cfg.StallRate *= scale
	if rng.Intn(6) == 0 {
		// Starve the retry budget: a single drawn fault now exhausts
		// delivery attempts, forcing the loud ErrTimeout path.
		cfg.MaxAttempts = 1 + rng.Intn(2)
	}
	if kill {
		// Rates span "kills are rare" to "most trials lose a thread":
		// both the straight-through and the rollback paths get exercised.
		cfg.KillRate = []float64{0.0002, 0.0005, 0.001, 0.002}[rng.Intn(4)]
	}
	return cfg
}

// mutationGeometries force multiple owners: every collective fault hides
// on a 1x1 machine, where requests never cross a thread boundary (the
// permute-back is an identity copy and each serve segment is the whole
// request list).
var mutationGeometries = [][2]int{{2, 2}, {4, 1}, {1, 4}, {3, 2}}

// mutationTrial samples a small, adversarial trial for fault detection:
// multi-thread machine, random graphs, modest sizes (maxN is not read) so
// the iteration-bounded kernels fail fast when the collectives lie to
// them. Even rounds draw one connected-ish graph (m = 3n); odd rounds the
// disjoint union of eight, with Compact on, so that a late round of a
// shrinking list still holds live edges of several trees on one thread,
// and of a sparse SmallWorld and Hybrid graph, where compacting hooks erred.
func mutationTrial(rng *xrand.Rand, round int, _ int64) *Trial {
	t := &Trial{Round: round, Seed: rng.Uint64()}
	geo := mutationGeometries[rng.Intn(len(mutationGeometries))]
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = geo[0], geo[1]
	t.Machine = cfg
	t.Opts = collective.Options{
		VirtualThreads: []int{0, 2, 3}[rng.Intn(3)],
		Circular:       rng.Intn(2) == 0,
		LocalCpy:       rng.Intn(2) == 0,
		CachedIDs:      rng.Intn(2) == 0,
		Offload:        rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		t.Opts.Sort = collective.QuickSort
	}
	n := 64 + rng.Int64n(137)
	if seed := rng.Uint64(); round%2 == 0 {
		t.GraphName, t.Graph = "random", graph.Random(n, 3*n, seed)
	} else {
		parts, r := make([]*graph.Graph, 8, 10), xrand.New(seed)
		for i := range parts {
			parts[i] = graph.Random(n/8, 3*(n/8), r.Uint64())
		}
		parts = append(parts, graph.SmallWorld(n, 2, 0.3, r.Uint64()), graph.Hybrid(n, n, r.Uint64()))
		t.GraphName, t.Graph, t.Compact = "disjoint", graph.Disjoint(parts...), true
	}
	t.WGraph = graph.WithRandomWeights(t.Graph, t.Seed)
	t.List = listrank.RandomList(n, rng.Uint64())
	t.Src = rng.Int64n(t.Graph.N)
	return t
}

// oracle is the check's own pass/fail verdict.
func oracle(rec *Record, _ Check, _ Env, ran *checkResult) {
	if rec.Err = ran.Err; rec.Err != nil {
		rec.Outcome = Wrong
	}
}

// detection inverts the oracle: under an injected fault, a failing check
// has caught the mutation.
func detection(rec *Record, _ Check, _ Env, ran *checkResult) {
	if rec.Err = ran.Err; rec.Err != nil {
		rec.Outcome = Detected
	}
}

// ladder places an in-process chaos run on the outcome ladder.
func ladder(rec *Record, _ Check, _ Env, ran *checkResult) {
	rec.Err, rec.Stats = ran.Err, ran.Stats
	rec.Rollbacks, rec.Evicted = ran.Reports[0].Rollbacks, ran.Reports[0].Evicted
	rec.Outcome = outcomeOf(rec.Err, rec.Rollbacks)
}

// dualBackend holds a hosted wire run to its in-process twin under the same
// schedule: both recover with identical fault counters — the per-thread draw
// streams are backend-independent by construction — or both fail
// classified. Anything else is a mismatch, counted Wrong.
func dualBackend(rec *Record, c Check, env Env, wire *checkResult) {
	in := runCheck(c, rec.Trial, Env{Chaos: env.Chaos})
	rec.Stats = in.Stats
	switch {
	case (in.Err == nil) != (wire.Err == nil):
		rec.Err = fmt.Errorf("outcome diverges: in-process err=%v, wire err=%v", in.Err, wire.Err)
	case in.Err != nil && (!classifiedErr(in.Err) || !classifiedErr(wire.Err)):
		rec.Err = fmt.Errorf("unclassified failure: in-process %v, wire %v", in.Err, wire.Err)
	case in.Err != nil:
		rec.Outcome, rec.Err = Classified, in.Err
		return
	case in.Stats != wire.Stats:
		rec.Err = fmt.Errorf("counters diverge: in-process %+v, wire %+v", in.Stats, wire.Stats)
	default:
		return
	}
	rec.Outcome = Wrong
}

// survivors places a supervised wire run on the ladder. The survivors are
// authoritative: the lowest node that completed names the rollback history,
// and every other survivor must agree on it — the membership agreement
// makes the evicted set exact, so disagreement is a determinism bug, not
// noise. A run with no survivors fails classified when every node failed
// loudly (budget exhausted, self-evicted, or unwound by a peer's abort); an
// unclassified node error is a wrong answer.
func survivors(rec *Record, _ Check, _ Env, ran *checkResult) {
	rec.Stats = ran.Stats
	rec.Err = func() error {
		ref := -1
		for nd, e := range ran.Errs {
			if e != nil && !classifiedErr(e) {
				return fmt.Errorf("node %d failed unclassified: %v", nd, e)
			}
			if e == nil && ref < 0 {
				ref = nd
			}
		}
		if ref < 0 {
			return fmt.Errorf("no survivors: %w", ran.Errs[0])
		}
		r := ran.Reports[ref]
		for nd, e := range ran.Errs {
			if e == nil && (ran.Reports[nd].Rollbacks != r.Rollbacks || !slices.Equal(ran.Reports[nd].Evicted, r.Evicted)) {
				return fmt.Errorf("survivors diverge: node %d rollbacks=%d evicted=%v vs node %d rollbacks=%d evicted=%v",
					ref, r.Rollbacks, r.Evicted, nd, ran.Reports[nd].Rollbacks, ran.Reports[nd].Evicted)
			}
		}
		rec.Rollbacks, rec.Evicted = r.Rollbacks, r.Evicted
		return nil
	}()
	rec.Outcome = outcomeOf(rec.Err, rec.Rollbacks)
}

// Outcome places one soak run on the ladder.
type Outcome int

const (
	// Passed: the check matched its oracle — through any injected faults,
	// which retries absorbed.
	Passed Outcome = iota
	// Classified: the run failed loudly with a classified pgas error
	// (ErrTransport / ErrTimeout / ErrCorrupt / ErrEvicted). Acceptable —
	// the fault schedule exceeded the retry budget and the runtime said so.
	Classified
	// Wrong: the output disagreed with the oracle, the run died with an
	// unclassified panic, or the backends diverged. Always a bug.
	Wrong
	// Hang: the run outlived the watchdog. Always a bug.
	Hang
	// RolledBack: threads were evicted mid-run, the recovery supervisor
	// remapped and rolled back, and the answer still matched the oracle.
	RolledBack
	// Detected: a check failed under an injected collective fault — the
	// mutation self-test's goal. (The digests fold these values, so new
	// outcomes go last.)
	Detected
	numOutcomes
)

func (o Outcome) String() string {
	return [...]string{"passed", "classified", "wrong", "hang", "rolled-back", "detected"}[o]
}

// outcomeOf places one finished chaos run on the ladder.
func outcomeOf(err error, rollbacks int) Outcome {
	switch {
	case err == nil && rollbacks > 0:
		return RolledBack
	case err == nil:
		return Passed
	case classifiedErr(err):
		return Classified
	}
	return Wrong
}

// digest is the fold every soak fingerprint is built from.
type digest uint64

const digestSeed digest = 0x9E3779B97F4A7C15

func (h *digest) mix(v uint64) {
	*h ^= digest(v)
	*h *= 0x100000001B3
	*h ^= *h >> 29
}

func (h *digest) mixString(s string) {
	for _, c := range s {
		h.mix(uint64(c))
	}
}

// foldRecord folds a run's round, outcome, check, exact fault counters and
// recovery history.
func foldRecord(h *digest, r *Record) {
	h.mix(uint64(r.Round))
	h.mix(uint64(r.Outcome))
	h.mixString(r.Check)
	for _, v := range []int64{r.Stats.Ops, r.Stats.Delays, r.Stats.Dups, r.Stats.Drops,
		r.Stats.Corrupts, r.Stats.Stalls, r.Stats.Retries, r.Stats.Kills, int64(r.Rollbacks)} {
		h.mix(uint64(v))
	}
	for _, id := range r.Evicted {
		h.mix(uint64(id))
	}
}

// foldSurvivors is WireKill's own fold, pinned before the rows shared a
// loop: it reads only what the surviving nodes agree on — round, check,
// outcome and, after a rollback, the rollback history — and no fault
// counters, which on a wire cluster include the dying nodes'.
func foldSurvivors(h *digest, r *Record) {
	h.mix(uint64(r.Round))
	h.mixString(r.Check)
	h.mix(uint64(r.Outcome))
	if r.Outcome == RolledBack {
		h.mix(uint64(r.Rollbacks))
		for _, id := range r.Evicted {
			h.mix(uint64(id) + 1)
		}
	}
}
