package euler

import (
	"fmt"

	"pgasgraph/internal/graph"
)

// VerifyStats checks TreeStats structurally against the input forest —
// an exact oracle without re-running the tour. Trees have unique paths,
// so local consistency pins every field globally:
//
//   - Root is the forest's component partition named by minimum ids (the
//     documented rooting): constant along every edge, a fixed point no
//     larger than any vertex carrying it, and n - m distinct values — as
//     many as an acyclic graph has trees, so no two trees share one;
//   - Parent edges exist in the forest, roots (and only roots) have
//     Parent = -1, and Depth increases by exactly one along each parent
//     link (which makes Depth the unique root distance);
//   - Preorder is a bijection on [1, treeSize] per tree with proper
//     subtree nesting, and SubtreeSize sums children plus one.
//
// It is the oracle adapter the differential verification harness runs
// after every Euler-tour configuration.
func VerifyStats(forest *graph.Graph, ts *TreeStats) error {
	n := forest.N
	if int64(len(ts.Root)) != n {
		return fmt.Errorf("euler: %d roots for %d vertices", len(ts.Root), n)
	}
	adj := map[[2]int64]bool{}
	for e := range forest.U {
		u, v := int64(forest.U[e]), int64(forest.V[e])
		if ts.Root[u] != ts.Root[v] {
			return fmt.Errorf("euler: forest edge (%d,%d) joins roots %d and %d", u, v, ts.Root[u], ts.Root[v])
		}
		adj[[2]int64{u, v}] = true
		adj[[2]int64{v, u}] = true
	}
	trees := int64(0)
	for v, r := range ts.Root {
		if r < 0 || r > int64(v) || ts.Root[r] != r {
			return fmt.Errorf("euler: root[%d] = %d is not the minimum id of a tree", v, r)
		}
		if r == int64(v) {
			trees++
		}
	}
	if trees != n-forest.M() {
		return fmt.Errorf("euler: %d distinct roots over a forest of %d trees", trees, n-forest.M())
	}
	size := make(map[int64]int64) // vertices per root
	childSum := make([]int64, n)  // sum of children's subtree sizes
	for v := int64(0); v < n; v++ {
		p := ts.Parent[v]
		size[ts.Root[v]]++
		switch {
		case p == -1:
			if ts.Root[v] != v {
				return fmt.Errorf("euler: vertex %d has no parent but root %d", v, ts.Root[v])
			}
			if ts.Depth[v] != 0 {
				return fmt.Errorf("euler: root %d has depth %d", v, ts.Depth[v])
			}
		default:
			if ts.Root[v] == v {
				return fmt.Errorf("euler: root %d has parent %d", v, p)
			}
			if p < 0 || p >= n || !adj[[2]int64{v, p}] {
				return fmt.Errorf("euler: parent link %d -> %d is not a forest edge", v, p)
			}
			if ts.Depth[v] != ts.Depth[p]+1 {
				return fmt.Errorf("euler: depth[%d] = %d, parent %d has depth %d", v, ts.Depth[v], p, ts.Depth[p])
			}
			if ts.Root[v] != ts.Root[p] {
				return fmt.Errorf("euler: vertex %d and parent %d have different roots", v, p)
			}
			childSum[p] += ts.SubtreeSize[v]
		}
	}
	seen := map[[2]int64]bool{} // (root, preorder) uniqueness
	for v := int64(0); v < n; v++ {
		if ts.SubtreeSize[v] != childSum[v]+1 {
			return fmt.Errorf("euler: subtree size of %d is %d, children sum to %d", v, ts.SubtreeSize[v], childSum[v])
		}
		pre := ts.Preorder[v]
		if pre < 1 || pre > size[ts.Root[v]] {
			return fmt.Errorf("euler: preorder[%d] = %d outside [1,%d]", v, pre, size[ts.Root[v]])
		}
		key := [2]int64{ts.Root[v], pre}
		if seen[key] {
			return fmt.Errorf("euler: duplicate preorder %d in tree rooted at %d", pre, ts.Root[v])
		}
		seen[key] = true
		if p := ts.Parent[v]; p != -1 {
			lo, hi := ts.Preorder[p], ts.Preorder[p]+ts.SubtreeSize[p]-1
			if pre <= lo || pre > hi {
				return fmt.Errorf("euler: preorder[%d] = %d outside parent %d's subtree range (%d,%d]", v, pre, p, lo, hi)
			}
		}
	}
	return nil
}
