// Package bfs implements distributed level-synchronous breadth-first
// search — the algorithm the paper's introduction positions against its
// own (§I): Yoo et al.'s BlueGene/L BFS was the only prior demonstration
// of distributed graph performance, but BFS has an inherent Ω(d) bound on
// parallel time (d the input diameter), whereas the paper's CC/MST kernels
// run in poly-log rounds regardless of topology. The experiments' bfs row
// makes that contrast measurable.
//
// Coalesced pushes each level's frontier candidates to their owners with
// one Exchange (personalized all-to-all) per level. The frontier changes
// every level, so BFS stays on the one-shot collectives — it gains nothing
// from the collective.Plan reuse the fixed-request kernels (cc, mst,
// listrank) amortize their setup with.
package bfs

import (
	"math"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// Unreached marks vertices not reachable from the source.
const Unreached = int64(math.MaxInt64)

// maxLevels bounds BFS levels (at most n).
const maxLevels = 1 << 26

// Result is the outcome of one BFS run.
type Result struct {
	// Dist[i] is the hop distance from the source, or Unreached.
	Dist []int64
	// Levels is the number of frontier expansions (the graph's
	// eccentricity from the source plus one).
	Levels int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}

// SeqDistances is the sequential baseline: textbook queue BFS over CSR.
func SeqDistances(g *graph.Graph, src int64) []int64 {
	csr := graph.BuildCSR(g)
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Unreached
	}
	if g.N == 0 {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range csr.Neighbors(int64(v)) {
			if dist[w] == Unreached {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Coalesced runs level-synchronous BFS with one personalized all-to-all
// per level: each thread expands its owned frontier along its CSR rows and
// routes the neighbor candidates to their owners, which claim unvisited
// vertices into the next frontier.
//
// Recoverable state (pgas.Register): none. dist is
// monotone, but the frontier is not reconstructible from an arbitrary
// superstep cut — a restored dist with no frontier strands the traversal
// short of the fringe and would silently truncate distances. After an
// eviction BFS recovers by full deterministic re-execution.
func Coalesced(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, src int64, colOpts *collective.Options) *Result {
	col := collective.Sanitize(colOpts, false) // no offload: vertex 0's distance is not constant
	csr := graph.BuildCSR(g)
	dist := rt.NewSharedArray("Dist", g.N)
	dist.Fill(Unreached)
	if g.N > 0 {
		dist.StoreRaw(src, 0)
	}
	red := pgas.NewReducer(rt)

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := dist.ThreadCover(th.ID)
		th.ChargeSeq(sim.CatWork, hi-lo)

		frontier := make([]int64, 0, 1024)
		if src >= lo && src < hi && g.N > 0 {
			frontier = append(frontier, src)
		}
		cands := make([]int64, 0, 4096)
		th.Barrier()

		red.Loop(th, "bfs.Coalesced", maxLevels, func(i int) bool {
			level := int64(i) + 1
			// Expand: stream the frontier's adjacency rows.
			cands = cands[:0]
			var scanned int64
			for _, v := range frontier {
				row := csr.Neighbors(v)
				scanned += int64(len(row))
				for _, w := range row {
					cands = append(cands, int64(w))
				}
			}
			th.ChargeSeq(sim.CatWork, scanned+int64(len(frontier)))

			// Route candidates to their owners.
			recv := comm.Exchange(th, dist, cands, col, nil)

			// Claim: owners admit unvisited vertices into the next
			// frontier (duplicates collapse on the first claim).
			frontier = frontier[:0]
			for _, w := range recv {
				if dist.LoadRaw(w) == Unreached {
					dist.StoreRaw(w, level)
					frontier = append(frontier, w)
				}
			}
			th.ChargeIrregular(sim.CatCopy, int64(len(recv)), hi-lo)
			return len(frontier) > 0
		})
	})

	return &Result{Dist: append([]int64(nil), dist.Raw()...), Levels: run.Rounds, Run: run}
}
