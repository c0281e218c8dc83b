package collective_test

import (
	"testing"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

// retainedPerRequest bounds the words a Comm keeps after a warm
// cc.Coalesced on a shared fabric, per endpoint request of the run's
// largest list (2m, both ends of every edge). The one-shot plan's grouped
// requests, answers and positions make 2.5, the owner keys 0.5 and the
// offload drop records 0.5; the four combine tables add 0.5 at this size —
// 4.06 in all. A staging copy of the served segments adds at least 1 (an
// engine that staged every served segment, and copied the caller's list
// before keying it, held 7.99).
const retainedPerRequest = 4.5

// TestRetainedScratch pins the engine's retained scratch: on a shared
// fabric a serve reads and writes the peers' plan buffers in place, so a
// Comm warm from cc.Coalesced holds no wire staging at all, and what it
// does hold stays under retainedPerRequest words per planned request.
func TestRetainedScratch(t *testing.T) {
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = 2, 2
	rt, err := pgas.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(1<<14, 1<<16, 7)
	comm := collective.NewComm(rt)
	opts := &cc.Options{Col: collective.Optimized(2), Compact: true}
	cc.Coalesced(rt, comm, g, opts) // warm
	cc.Coalesced(rt, comm, g, opts)
	staging, total := comm.RetainedWords()
	if staging != 0 {
		t.Errorf("shared fabric: %d words of wire staging retained, want 0", staging)
	}
	requests := 2 * g.M()
	if per := float64(total) / float64(requests); per > retainedPerRequest {
		t.Errorf("retained %d words for %d planned requests: %.2f per request, bound %.1f",
			total, requests, per, retainedPerRequest)
	} else {
		t.Logf("retained %d words for %d planned requests: %.2f per request", total, requests, per)
	}
}
