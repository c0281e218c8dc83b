package cc

import (
	"fmt"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

// LTVariant selects a Liu-Tarjan rule combination (Liu & Tarjan, "Simple
// Concurrent Labeling Algorithms for Connected Components"). A variant is
// a hook rule × an update gate × a shortcut rule; see docs/MODEL.md for
// the full taxonomy and where the repo's other kernels sit in it.
type LTVariant int

const (
	// LTPRS: Parent hook, Root-gated, single Shortcut. Hooks write the
	// smaller parent label under the larger endpoint's parent, but only
	// when that parent was a root at gather time (the classic SV-style
	// gate, which costs a grandparent gather per round).
	LTPRS LTVariant = iota
	// LTPUS: Parent hook, Unconditional, single Shortcut. Like LTPRS
	// without the root gate — no grandparent gather, one fewer collective
	// per round, at the price of hooks that can land mid-chain.
	LTPUS
	// LTERS: Extended hook, Root-gated, single Shortcut. LTPRS plus a
	// direct vertex update (the larger-side endpoint itself also receives
	// the smaller parent label), which shortens chains a round earlier.
	LTERS
)

// String returns the registry-facing variant name ("lt-prs", ...).
func (v LTVariant) String() string {
	switch v {
	case LTPRS:
		return "lt-prs"
	case LTPUS:
		return "lt-pus"
	case LTERS:
		return "lt-ers"
	}
	return fmt.Sprintf("lt-invalid(%d)", int(v))
}

// rule returns the variant's hook rule: P hooks the losing endpoint's
// parent only, E (extended) additionally writes the losing endpoint
// itself; R (root-gated) requires the hook target to have been a root at
// gather time, which costs the grandparent gather, U skips both. An
// unknown variant panics with a classified misuse error.
func (v LTVariant) rule() *hookRule {
	var extended, rootGated bool
	switch v {
	case LTPRS:
		rootGated = true
	case LTPUS:
	case LTERS:
		extended, rootGated = true, true
	default:
		panic(pgas.Errorf(pgas.ErrMisuse, -1, "cc.liutarjan", "unknown Liu-Tarjan variant %d", int(v)))
	}
	return &hookRule{
		name: "cc/" + v.String(), ckpt: "cc." + v.String() + ".D",
		grandparents: rootGated, opsPerEdge: 1,
		// For each live edge, the larger parent label's tree receives the
		// smaller parent label — at the parent (P), and additionally at
		// the endpoint itself for extended (E).
		hooks: func(end, par, gp, setIdx, setVal []int64) ([]int64, []int64) {
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
					setIdx = append(setIdx, end[lose])
					setVal = append(setVal, fu)
				}
			}
			return setIdx, setVal
		},
	}
}

// LiuTarjan runs one concurrent-labeling variant from the Liu-Tarjan
// framework on the shared hook-and-jump round (labelRounds). Labels are
// bit-identical to Coalesced/SV/FastSV. Every variant ignores Compact (see
// labelRounds).
// An unknown variant panics with a classified misuse error.
func LiuTarjan(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, v LTVariant, opts *Options) *Result {
	return labelRounds(rt, comm, g, opts, v.rule())
}
