// Package mis implements Luby's maximal-independent-set algorithm on the
// PGAS runtime — the third classic PRAM kernel family (after connectivity
// and list ranking) of the literature the paper draws on. Each round every
// active vertex draws a deterministic pseudo-random priority; local maxima
// join the set, and winners' neighborhoods retire through one Exchange per
// round. Expected O(log n) rounds.
//
// Priorities derive from (round, vertex) hashing, so no communication is
// needed to learn a neighbor's priority — only its liveness, which arrives
// through one coalesced GetD per round. The active set shrinks each
// round, so the liveness gather's request vector changes and the kernel
// stays on the one-shot GetD (no collective.Plan reuse applies). The
// result is checked directly against the MIS definition (independence +
// maximality) in the tests.
package mis

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Vertex states in the shared state array.
const (
	stateActive  = 0
	stateInSet   = 1
	stateRemoved = 2
)

// maxRounds bounds Luby rounds (expected O(log n); this is a backstop).
const maxRounds = 512

// Result is the outcome of one MIS run.
type Result struct {
	// InSet[v] reports whether v belongs to the maximal independent set.
	InSet []bool
	// Rounds is the number of Luby rounds executed.
	Rounds int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// priority returns the deterministic per-(round, vertex) priority, with
// the vertex id as the ultimate tie-break (appended in the low bits).
func priority(round int, v int64) uint64 {
	x := uint64(v)<<20 ^ uint64(round)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x<<20 | uint64(v)&(1<<20-1)
}

// Luby runs the distributed algorithm. Self-loops exclude their vertex
// from the set (it is adjacent to itself) without blocking termination.
//
// Recoverable state (pgas.Register): none. The per-round random
// priorities and the in/out/undecided partition are coupled within a
// round; a snapshot cut between the draw and the resolution is not a
// state the algorithm ever quiesces in. After an eviction MIS recovers by
// full deterministic re-execution.
func Luby(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, colOpts *collective.Options) *Result {
	if g.N >= 1<<20<<20 {
		panic("mis: vertex ids overflow priority packing")
	}
	col := collective.Sanitize(colOpts, false) // no offload: states are mutable
	csr := graph.BuildCSR(g)
	state := rt.NewSharedArray("State", g.N)
	red := pgas.NewOrReducer(rt)

	// Vertices with self-loops can never join; retire them up front.
	selfLoop := make([]bool, g.N)
	for i := range g.U {
		if g.U[i] == g.V[i] {
			selfLoop[g.U[i]] = true
		}
	}

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := state.ThreadCover(th.ID)
		active := make([]int64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			if selfLoop[v] {
				state.StoreRaw(v, stateRemoved)
			} else {
				active = append(active, v)
			}
		}
		th.ChargeSeq(sim.CatWork, hi-lo)
		var nbrIdx, nbrState, notify []int64
		th.Barrier()

		red.Loop(th, "mis.Luby", maxRounds, func(round int) bool {
			// Fetch the liveness of every active vertex's neighborhood.
			nbrIdx = nbrIdx[:0]
			offsets := make([]int, len(active)+1)
			for j, v := range active {
				offsets[j] = len(nbrIdx)
				for _, u := range csr.Neighbors(v) {
					if int64(u) != v {
						nbrIdx = append(nbrIdx, int64(u))
					}
				}
			}
			offsets[len(active)] = len(nbrIdx)
			th.ChargeSeq(sim.CatWork, int64(len(nbrIdx)+len(active)))
			if cap(nbrState) < len(nbrIdx) {
				nbrState = make([]int64, len(nbrIdx))
			}
			comm.GetD(th, state, nbrIdx, nbrState[:len(nbrIdx)], col, nil)

			// Local maxima join the set.
			notify = notify[:0]
			for j, v := range active {
				win := true
				pv := priority(round, v)
				for p := offsets[j]; p < offsets[j+1]; p++ {
					if nbrState[p] != stateActive {
						continue
					}
					if priority(round, nbrIdx[p]) >= pv {
						win = false
						break
					}
				}
				if win {
					state.StoreRaw(v, stateInSet)
					for p := offsets[j]; p < offsets[j+1]; p++ {
						if nbrState[p] == stateActive {
							notify = append(notify, nbrIdx[p])
						}
					}
				}
			}
			th.ChargeOps(sim.CatWork, int64(len(nbrIdx)))

			// Winners retire their neighborhoods via one exchange.
			retired := comm.Exchange(th, state, notify, col, nil)
			for _, u := range retired {
				if state.LoadRaw(u) == stateActive {
					state.StoreRaw(u, stateRemoved)
				}
			}
			th.ChargeIrregular(sim.CatCopy, int64(len(retired)), hi-lo)
			th.Barrier()

			// Shrink the active list.
			w := 0
			for _, v := range active {
				if state.LoadRaw(v) == stateActive {
					active[w] = v
					w++
				}
			}
			active = active[:w]
			th.ChargeSeq(sim.CatWork, int64(len(active)))
			return w > 0
		})
	})

	res := &Result{InSet: make([]bool, g.N), Rounds: run.Rounds, Run: run}
	for v := int64(0); v < g.N; v++ {
		res.InSet[v] = state.LoadRaw(v) == stateInSet
	}
	return res
}

// VerifySet checks a result directly against the definition: no two set
// members are adjacent, and every excluded vertex has a set neighbor
// (self-loop vertices are exempt from both conditions except exclusion).
// MIS solutions are not unique, so this certificate check — not a
// comparison against a sequential run — is the kernel's oracle.
func VerifySet(g *graph.Graph, res *Result) error {
	inSet := res.InSet
	if int64(len(inSet)) != g.N {
		return fmt.Errorf("mis: %d flags for %d vertices", len(inSet), g.N)
	}
	selfLoop := make([]bool, g.N)
	for i := range g.U {
		u, v := g.U[i], g.V[i]
		if u == v {
			selfLoop[u] = true
			if inSet[u] {
				return fmt.Errorf("mis: self-loop vertex %d in set", u)
			}
			continue
		}
		if inSet[u] && inSet[v] {
			return fmt.Errorf("mis: adjacent vertices %d and %d both in set", u, v)
		}
	}
	csr := graph.BuildCSR(g)
	for v := int64(0); v < g.N; v++ {
		if inSet[v] || selfLoop[v] {
			continue
		}
		covered := false
		for _, u := range csr.Neighbors(v) {
			if int64(u) != v && inSet[u] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("mis: vertex %d excluded with no set neighbor (not maximal)", v)
		}
	}
	return nil
}
