package verify

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/xrand"
)

// MutationResult records whether the battery caught one injected fault.
type MutationResult struct {
	// Fault is the injected collective-layer mutation.
	Fault collective.Fault
	// Detected reports whether any check failed under the fault.
	Detected bool
	// Check names the first check that caught it.
	Check string
	// Detail is that check's error.
	Detail error
	// Trials is how many trials ran before detection (all of them when
	// the fault escaped).
	Trials int
}

func (r *MutationResult) String() string {
	if r.Detected {
		return fmt.Sprintf("fault %s: DETECTED by %s after %d trial(s): %v",
			r.Fault, r.Check, r.Trials, r.Detail)
	}
	return fmt.Sprintf("fault %s: ESCAPED %d trial(s)", r.Fault, r.Trials)
}

// mutationGeometries force multiple owners: every collective fault hides
// on a 1x1 machine, where requests never cross a thread boundary (the
// permute-back is an identity copy and each serve segment is the whole
// request list).
var mutationGeometries = [][2]int{{2, 2}, {4, 1}, {1, 4}, {3, 2}}

// mutationTrial samples a small, adversarial trial for fault detection:
// multi-thread machine, connected-ish random graph, modest sizes so the
// iteration-bounded kernels fail fast when the collectives lie to them.
func mutationTrial(rng *xrand.Rand, round int) *Trial {
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
	t.GraphName = "random"
	t.Graph = graph.Random(n, 3*n, rng.Uint64())
	t.WGraph = graph.WithRandomWeights(t.Graph, t.Seed)
	t.List = listrank.RandomList(n, rng.Uint64())
	t.Src = rng.Int64n(n)
	return t
}

// MutationSelfTest injects each known collective fault and runs the
// mutation-safe subset of the battery until a check catches it (or
// rounds trials all pass, meaning the fault escaped). A healthy harness
// detects every fault — this is the test of the tests.
func MutationSelfTest(seed uint64, rounds int) []*MutationResult {
	if rounds <= 0 {
		rounds = 6
	}
	var results []*MutationResult
	for _, f := range collective.AllFaults() {
		if f == collective.FaultNone {
			continue
		}
		res := &MutationResult{Fault: f}
	trials:
		for round := 0; round < rounds; round++ {
			res.Trials = round + 1
			t := mutationTrial(xrand.New(seed).Split(uint64(f)<<16|uint64(round)), round)
			for _, c := range Checks() {
				if !c.Mutation || !c.Applicable(t) {
					continue
				}
				if err := RunCheck(c, t, Env{Fault: f}).Err; err != nil {
					res.Detected = true
					res.Check = c.Name
					res.Detail = err
					break trials
				}
			}
		}
		results = append(results, res)
	}
	return results
}
