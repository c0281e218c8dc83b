package listrank

import (
	"fmt"
)

// VerifyRanks checks a distributed list-ranking result against the
// sequential chain-walking oracle: every node's distance to its chain's
// tail must agree exactly. It is the oracle adapter the differential
// verification harness runs after every ranking kernel.
func VerifyRanks(l *List, ranks []int64) error {
	if int64(len(ranks)) != l.N {
		return fmt.Errorf("listrank: %d ranks for %d nodes", len(ranks), l.N)
	}
	want := seqRank(l)
	for i := range ranks {
		if ranks[i] != want[i] {
			return fmt.Errorf("listrank: rank[%d] = %d, oracle says %d", i, ranks[i], want[i])
		}
	}
	return nil
}
