package cc

import (
	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/pgas"
)

// CkptFastSVD is the checkpoint registration name of FastSV's D array.
const CkptFastSVD = "cc.fastsv.D"

// FastSV runs the FastSV algorithm (Zhang, Azad, Hu): Shiloach-Vishkin
// with stochastic and aggressive hooking on grandparent values plus a
// shortcut every round, converging in noticeably fewer supersteps than
// classic SV because hooks skip a tree level and every vertex — not just
// roots — can be hooked. Like every labelRounds rule, FastSV ignores
// Compact (see labelRounds).
func FastSV(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, opts *Options) *Result {
	return labelRounds(rt, comm, g, opts, &fastSVRule)
}

var fastSVRule = hookRule{
	name: "cc/fastsv", ckpt: CkptFastSVD,
	// Both directions per edge. Stochastic hooking writes the neighbor's
	// grandparent under the parent; aggressive hooking writes it under the
	// vertex itself. The gathered current values prune requests that
	// cannot win (labels only decrease, so a value >= the last-seen target
	// value never lands).
	hooks: func(end []int32, par, gp, setIdx, setVal []int64) ([]int64, []int64) {
		for j := 0; j < len(par); j += 2 {
			fu, fv := par[j], par[j+1]
			gu, gv := gp[j], gp[j+1]
			if gv < gu { // stochastic: D[f(u)] <- g(v)
				setIdx = append(setIdx, fu)
				setVal = append(setVal, gv)
			}
			if gu < gv { // stochastic: D[f(v)] <- g(u)
				setIdx = append(setIdx, fv)
				setVal = append(setVal, gu)
			}
			if gv < fu { // aggressive: D[u] <- g(v)
				setIdx = append(setIdx, int64(end[j]))
				setVal = append(setVal, gv)
			}
			if gu < fv { // aggressive: D[v] <- g(u)
				setIdx = append(setIdx, int64(end[j+1]))
				setVal = append(setVal, gu)
			}
		}
		return setIdx, setVal
	},
}
