package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

// ltVariant selects a Liu-Tarjan rule combination (Liu & Tarjan, "Simple
// Concurrent Labeling Algorithms for Connected Components"). A variant is
// a hook rule × an update gate × a shortcut rule; see docs/MODEL.md for
// the taxonomy. The variants are test-only, not kernels of the registry:
// they drive labelRounds' one round (grandparent gather and two charged ops
// per edge included, whether or not the rule reads gp) on the same
// correctness tables as SV and FastSV.
type ltVariant int

const (
	// ltPRS: Parent hook, Root-gated, single Shortcut. Hooks write the
	// smaller parent label under the larger endpoint's parent, but only
	// when that parent was a root at gather time (the classic SV-style
	// gate, read off the grandparent gather).
	ltPRS ltVariant = iota
	// ltPUS: Parent hook, Unconditional, single Shortcut. Like ltPRS
	// without the root gate: its hooks ignore the grandparents and can
	// land mid-chain.
	ltPUS
	// ltERS: Extended hook, Root-gated, single Shortcut. ltPRS plus a
	// direct vertex update (the larger-side endpoint itself also receives
	// the smaller parent label), which shortens chains a round earlier.
	ltERS
)

// String returns the variant's test-only rule name ("lt-prs", ...).
func (v ltVariant) String() string {
	switch v {
	case ltPRS:
		return "lt-prs"
	case ltPUS:
		return "lt-pus"
	case ltERS:
		return "lt-ers"
	}
	return fmt.Sprintf("lt-invalid(%d)", int(v))
}

// rule returns the variant's hook rule: P hooks the losing endpoint's
// parent only, E (extended) additionally writes the losing endpoint
// itself; R (root-gated) requires the hook target to have been a root at
// gather time, read off the grandparents, U hooks regardless. An
// unknown variant panics with a classified misuse error.
func (v ltVariant) rule() *hookRule {
	var extended, rootGated bool
	switch v {
	case ltPRS:
		rootGated = true
	case ltPUS:
	case ltERS:
		extended, rootGated = true, true
	default:
		panic(pgas.Errorf(pgas.ErrMisuse, -1, "cc.liutarjan", "unknown Liu-Tarjan variant %d", int(v)))
	}
	return &hookRule{
		name: "cc/" + v.String(), ckpt: "cc." + v.String() + ".D",
		// For each live edge, the larger parent label's tree receives the
		// smaller parent label — at the parent (P), and additionally at
		// the endpoint itself for extended (E).
		hooks: func(end []int32, par, gp, setIdx, setVal []int64) ([]int64, []int64) {
			for j := 0; j < len(par); j += 2 {
				fu, fv := par[j], par[j+1]
				if fu == fv {
					continue
				}
				// Orient so fu < fv: lose indexes the endpoint whose
				// parent label is larger and receives the hook.
				lose := j + 1
				if fu > fv {
					fu, fv = fv, fu
					lose = j
				}
				// Root gate: the grandparent of the hook target tells
				// whether it was a root (g == f) at gather time.
				if !rootGated || gp[lose] == fv {
					setIdx = append(setIdx, fv)
					setVal = append(setVal, fu)
				}
				if extended {
					setIdx = append(setIdx, int64(end[lose]))
					setVal = append(setVal, fu)
				}
			}
			return setIdx, setVal
		},
	}
}

// liuTarjan runs one concurrent-labeling variant from the Liu-Tarjan
// framework on the shared hook-and-jump round (labelRounds). Labels are
// bit-identical to Coalesced/SV/FastSV. Every variant ignores Compact (see
// labelRounds).
// An unknown variant panics with a classified misuse error.
func liuTarjan(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, v ltVariant, opts *Options) *Result {
	return labelRounds(rt, comm, g, opts, v.rule())
}
