package cc

import (
	"hash/fnv"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/trace"
)

// digest folds label vectors into one FNV-1a word, so a pinned run is one
// constant instead of a table.
func digest(vecs ...[]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vecs {
		for _, x := range v {
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestIdentityRound: round 0 starts from the identity fill, where the
// endpoint gather (and the grandparent gather on top of it) would return
// its own request vector, so the kernels copy instead. What is pinned here
// was recorded on the commit before the identity round: the GetD call count
// it issued, and the answer it produced — labels, component and iteration
// counts and, for the labelRounds family, every per-round label snapshot.
// The identity round must remove exactly the round-0 gathers and change
// nothing else. Coalesced's last round has since ended at its gather too,
// which removes its one jump level: the tail column. PointerJump has since
// retired a vertex whose new label is the pinned root 0, which removes the
// last level of rounds 2 and 3, where thread 0 asked only for D[0] (every
// request dropped by the offload filter): the retired column.
// lt-pus has since gathered grandparents like every labelRounds rule, so its
// columns are the three-gather round's (5 rounds of 3 GetD, round 0's two
// skipped), not the two-gather round it was first recorded on; its hooks
// ignore the grandparents, so its labels and snapshots stay as pinned.
func TestIdentityRound(t *testing.T) {
	g := graph.Random(400, 440, 11)
	type runFn func(*pgas.Runtime, *collective.Comm, *Options) *Result
	lt := func(v ltVariant) runFn {
		return func(rt *pgas.Runtime, comm *collective.Comm, o *Options) *Result {
			return liuTarjan(rt, comm, g, v, o)
		}
	}
	coalesced := func(rt *pgas.Runtime, comm *collective.Comm, o *Options) *Result { return Coalesced(rt, comm, g, o) }
	sv := func(rt *pgas.Runtime, comm *collective.Comm, o *Options) *Result { return SV(rt, comm, g, o) }
	fastsv := func(rt *pgas.Runtime, comm *collective.Comm, o *Options) *Result { return FastSV(rt, comm, g, o) }
	const (
		components = 57
		labels     = 0x156bc3ec5bf0b199
	)
	cases := []struct {
		name    string
		compact bool
		run     runFn
		// parentGetD is the GetD call count before the identity round;
		// skipped the round-0 gathers it removes, tail the last round's
		// jump level that ending the round at its gather removes, retired
		// the jump levels that retiring vertices at the root removes.
		parentGetD, skipped, tail, retired int64
		iterations                         int
		rounds                             uint64 // snapshot digest; 0 where no probe exists
	}{
		{"coalesced", false, coalesced, 15, 1, 1, 2, 4, 0},
		{"coalesced+compact", true, coalesced, 15, 1, 1, 2, 4, 0},
		{"sv", false, sv, 15, 2, 0, 0, 5, 0xcd5c8efea6508d4a},
		{"sv+compact", true, sv, 15, 2, 0, 0, 5, 0xcd5c8efea6508d4a},
		{"fastsv", false, fastsv, 15, 2, 0, 0, 5, 0x4669e9360eb944},
		{"lt-prs", false, lt(ltPRS), 15, 2, 0, 0, 5, 0x92c13cc1526f0ad4},
		{"lt-pus", false, lt(ltPUS), 15, 2, 0, 0, 5, 0xcd5c8efea6508d4a},
		{"lt-pus+compact", true, lt(ltPUS), 15, 2, 0, 0, 5, 0xcd5c8efea6508d4a},
		{"lt-ers", false, lt(ltERS), 15, 2, 0, 0, 5, 0xa90f631a351224cc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, 2, 2)
			comm := collective.NewComm(rt)
			col := trace.NewCollector(rt.NumThreads())
			comm.SetTracer(col)
			var res *Result
			snaps := captureRounds(func() {
				res = tc.run(rt, comm, &Options{Col: collective.Optimized(2), Compact: tc.compact})
			})
			if got, want := col.Calls("GetD"), tc.parentGetD-tc.skipped-tc.tail-tc.retired; got != want {
				t.Errorf("%d GetD calls, want %d (%d before the identity round, %d skipped, %d in the tail, %d retired)",
					got, want, tc.parentGetD, tc.skipped, tc.tail, tc.retired)
			}
			if res.Iterations != tc.iterations || res.Components != components {
				t.Errorf("%d iterations, %d components; pinned %d, %d",
					res.Iterations, res.Components, tc.iterations, components)
			}
			if got := digest(res.Labels); got != labels {
				t.Errorf("labels digest %#x, pinned %#x", got, uint64(labels))
			}
			var rounds uint64
			if len(snaps) > 0 {
				rounds = digest(snaps...)
			}
			if rounds != tc.rounds {
				t.Errorf("per-round snapshots digest %#x, pinned %#x", rounds, tc.rounds)
			}
		})
	}
}
