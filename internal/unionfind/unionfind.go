// Package unionfind implements the disjoint-set forest used by the
// sequential connected-components and Kruskal baselines, with union by rank
// and path halving.
package unionfind

// DS is a disjoint-set forest over elements [0, n).
type DS struct {
	parent []int32
	rank   []int8
	// Touches counts parent-array accesses, the count the sequential
	// baselines charge against the cost model: 2 per path-halving step
	// and 1 for the root each Find ends at, and 2 per link Union makes.
	Touches int64
}

// New returns a forest of n singleton sets.
func New(n int64) *DS {
	d := &DS{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set, halving paths as it walks.
func (d *DS) Find(x int32) int32 {
	for d.parent[x] != x {
		d.Touches += 2
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	d.Touches++
	return x
}

// Union merges the sets of a and b, reporting whether a merge happened
// (false when they were already together).
func (d *DS) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	d.Touches += 2
	return true
}
