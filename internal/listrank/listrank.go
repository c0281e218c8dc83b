// Package listrank implements distributed list ranking — the problem the
// paper's introduction uses to contrast two philosophies (§I-§II):
//
//   - Wyllie: the classic PRAM pointer-jumping algorithm mapped onto the
//     PGAS runtime with the GetD/SetD collectives — O(log n) coalesced
//     communication rounds, every processor busy every round.
//   - CGM: the communication-efficient algorithm of Dehne et al. — O(log p)
//     contraction rounds shrink the distributed list until it fits one
//     node, a *sequential* algorithm ranks the contracted list there while
//     every other processor idles, and expansion rounds recover the
//     removed nodes' ranks.
//
// The paper argues that on machines with deep memory hierarchies the
// sequential step's cache behaviour and the idle processors can cost more
// than the communication rounds saved — "it is faster to coordinate
// multiple processors to process the same input in parallel" (§I). The
// ExpListRank experiment measures exactly that trade-off.
package listrank

import (
	"fmt"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/xrand"
)

// List is a collection of disjoint linked chains over nodes [0, n).
// Succ[i] is i's successor; a tail points to itself.
type List struct {
	N    int64
	Succ []int32
}

// Validate checks structural sanity: successors in range and every node
// reaching a tail (no cycles other than tail self-loops). It is linear in
// n, so RunKernel can afford it on every dispatch.
func (l *List) Validate() error {
	if int64(len(l.Succ)) != l.N {
		return fmt.Errorf("listrank: len(Succ)=%d != n=%d", len(l.Succ), l.N)
	}
	hasPred := make([]bool, l.N)
	for i, s := range l.Succ {
		if int64(s) >= l.N || s < 0 {
			return fmt.Errorf("listrank: succ[%d]=%d out of range", i, s)
		}
		if int64(s) != int64(i) {
			if hasPred[s] {
				return fmt.Errorf("listrank: node %d has two predecessors", s)
			}
			hasPred[s] = true
		}
	}
	// Acyclicity. With one successor and at most one predecessor each, the
	// nodes form disjoint paths that end in a tail, plus cycles; no path
	// enters a cycle (its nodes' one predecessor is on the cycle). So the
	// walks from the heads visit every node exactly once, or a cycle exists.
	reached := int64(0)
	for h := int64(0); h < l.N; h++ {
		if hasPred[h] {
			continue
		}
		reached++
		for j := h; int64(l.Succ[j]) != j; j = int64(l.Succ[j]) {
			reached++
		}
	}
	if reached != l.N {
		return fmt.Errorf("listrank: %d of %d nodes lie on a cycle", l.N-reached, l.N)
	}
	return nil
}

// RandomList builds one chain threading all n nodes in a random order
// derived from seed — the standard list-ranking benchmark input, with no
// locality between a node's id and its list position.
func RandomList(n int64, seed uint64) *List {
	perm := xrand.New(seed).Split(0x11577).Perm(int(n))
	l := &List{N: n, Succ: make([]int32, n)}
	for k := int64(0); k+1 < n; k++ {
		l.Succ[perm[k]] = int32(perm[k+1])
	}
	if n > 0 {
		l.Succ[perm[n-1]] = int32(perm[n-1])
	}
	return l
}

// Chains builds k disjoint random chains of near-equal length.
func Chains(n, k int64, seed uint64) *List {
	if k < 1 {
		panic("listrank: need at least one chain")
	}
	perm := xrand.New(seed).Split(0x2c4a15).Perm(int(n))
	l := &List{N: n, Succ: make([]int32, n)}
	for c := int64(0); c < k; c++ {
		lo, hi := pgas.Span(n, int(k), int(c))
		for p := lo; p+1 < hi; p++ {
			l.Succ[perm[p]] = int32(perm[p+1])
		}
		if hi > lo {
			l.Succ[perm[hi-1]] = int32(perm[hi-1])
		}
	}
	return l
}

// seqRank returns every node's distance to its chain's tail, computed by
// one sequential pass per chain (heads first, accumulating backward from
// the tail via a second pass over the recorded path).
func seqRank(l *List) []int64 {
	ranks, _ := seqRankCounted(l)
	return ranks
}

// SeqRankTimed runs seqRank and charges its pointer chasing against the
// model, returning ranks and simulated nanoseconds.
func SeqRankTimed(l *List, model *sim.Model) ([]int64, float64) {
	ranks, touches := seqRankCounted(l)
	var clk sim.Clock
	clk.Charge(sim.CatWork, model.SeqScan(l.N)) // head scan
	ns, _ := model.IrregularAccess(touches, l.N)
	clk.Charge(sim.CatIrregular, ns)
	return ranks, clk.NS
}

func seqRankCounted(l *List) (ranks []int64, touches int64) {
	n := l.N
	ranks = make([]int64, n)
	isHead := make([]bool, n)
	for i := range isHead {
		isHead[i] = true
	}
	for i := int64(0); i < n; i++ {
		if int64(l.Succ[i]) != i {
			isHead[l.Succ[i]] = false
		}
	}
	path := make([]int64, 0, 1024)
	for h := int64(0); h < n; h++ {
		if !isHead[h] {
			continue
		}
		path = path[:0]
		j := h
		for {
			path = append(path, j)
			touches++
			next := int64(l.Succ[j])
			if next == j {
				break
			}
			j = next
		}
		for d := len(path) - 1; d >= 0; d-- {
			ranks[path[d]] = int64(len(path) - 1 - d)
			touches++
		}
	}
	return ranks, touches
}

// Result is the outcome of a distributed list-ranking run.
type Result struct {
	// Ranks[i] is node i's distance to its chain's tail.
	Ranks []int64
	// Rounds counts communication rounds (jump levels for Wyllie;
	// contraction plus expansion rounds for CGM).
	Rounds int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
}
