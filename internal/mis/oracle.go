package mis

import (
	"pgasgraph/internal/graph"
)

// VerifySet checks a distributed MIS result directly against the
// definition: no two set members are adjacent, and every excluded vertex
// has a set neighbor. MIS solutions are not unique, so this certificate
// check — not a comparison against a sequential run — is the oracle adapter
// the differential verification harness runs.
func VerifySet(g *graph.Graph, res *Result) error {
	return Check(g, res.InSet)
}
