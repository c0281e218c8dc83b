package euler

import (
	"fmt"
	"slices"

	"pgasgraph/internal/graph"
)

// VerifyParents checks Tour's answer exactly without re-running it: it
// roots every tree of the forest at its smallest id on the host, by a
// breadth-first search from that id, and requires parent[v] to be v's
// predecessor on its unique path to the root (-1 for the root itself). It
// reads no roots from the caller.
//
// It is the oracle adapter the differential verification harness runs
// after every Euler-tour configuration.
func VerifyParents(forest *graph.Graph, parent []int64) error {
	n := forest.N
	if int64(len(parent)) != n {
		return fmt.Errorf("euler: %d parents for %d vertices", len(parent), n)
	}
	csr := graph.BuildCSR(forest)
	want := make([]int64, n)
	seen := make([]bool, n)
	queue := make([]int64, 0, n)
	trees := int64(0)
	for r := int64(0); r < n; r++ {
		if seen[r] {
			continue
		}
		trees++
		want[r], seen[r] = -1, true
		for queue = append(queue, r); len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			for _, u := range csr.Neighbors(v) {
				if !seen[u] {
					want[u], seen[u] = v, true
					queue = append(queue, int64(u))
				}
			}
		}
	}
	if trees != n-forest.M() {
		return fmt.Errorf("euler: %d edges on %d vertices in %d trees is not a forest", forest.M(), n, trees)
	}
	for v := int64(0); v < n; v++ {
		p, w := parent[v], want[v]
		switch {
		case p == w:
		case w == -1:
			return fmt.Errorf("euler: vertex %d is its tree's smallest id, so its root, but has parent %d", v, p)
		case p == -1:
			return fmt.Errorf("euler: vertex %d has no parent; its tree's root is smaller, so want %d", v, w)
		case p < 0 || p >= n || !slices.Contains(csr.Neighbors(v), int32(p)):
			return fmt.Errorf("euler: parent link %d -> %d is not a forest edge", v, p)
		default:
			return fmt.Errorf("euler: parent[%d] = %d points away from the root; want %d", v, p, w)
		}
	}
	return nil
}
