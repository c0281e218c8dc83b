package serve

import (
	"fmt"

	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	rec "pgasgraph/internal/recover"
)

// Edge is one inserted edge. W is used only when the resident graph is
// weighted.
type Edge struct {
	U, V int64
	W    uint32
}

// InsertReport describes how an insertion batch was absorbed; it is also
// FrameInsert's JSON answer.
type InsertReport struct {
	// Edges is the number of edges appended.
	Edges int `json:"edges"`
	// Incremental is true when the resident labels were updated by the
	// batch contraction; false when they were rebuilt from scratch
	// (no labels resident, or the supervised fallback ran).
	Incremental bool `json:"incremental"`
	// Rounds is 1 on the incremental path (one region, no rounds) or the
	// recompute kernel's iteration count.
	Rounds int `json:"rounds"`
	// Rollbacks counts recovery rollbacks taken by the supervised
	// fallback (0 on the incremental path).
	Rollbacks int `json:"rollbacks,omitempty"`
	// Components is the post-insertion component count.
	Components int64 `json:"components"`
	// Verified is true when Config.Verify differentially checked the
	// update against a from-scratch recompute.
	Verified bool `json:"verified,omitempty"`
	// Run carries the label update's simulated-time accounting (nil when
	// no labels were resident). It does not travel.
	Run *pgas.Result `json:"-"`
}

// Insert appends edges to the resident graph and brings the resident
// results up to date. Component labels update incrementally: the labels
// array is the component-minimum labeling, so a batch is a union-find over
// only the roots its endpoints carry plus one relabel pass (cc.Incremental)
// — bit-identical to a from-scratch recompute — and the sizes follow the
// merges it reports. If the update is cut down by a classified runtime
// failure, the fallback re-executes the full labeling kernel under the
// internal/recover supervisor. Distance trees and the spanning forest do
// not update incrementally; they are dropped and must be re-run
// (documented contract, docs/SERVING.md).
func (s *Service) Insert(edges []Edge) (*InsertReport, error) {
	rep := &InsertReport{Edges: len(edges)}
	if len(edges) == 0 {
		rep.Components = s.components
		return rep, nil
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= s.g.N || e.V < 0 || e.V >= s.g.N {
			return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.insert",
				"edge %d = (%d,%d) out of range n=%d", i, e.U, e.V, s.g.N)
		}
	}

	eu := make([]int64, len(edges))
	ev := make([]int64, len(edges))
	for i, e := range edges {
		s.g.U = append(s.g.U, int32(e.U))
		s.g.V = append(s.g.V, int32(e.V))
		if s.g.Weighted() {
			s.g.W = append(s.g.W, e.W)
		}
		eu[i], ev[i] = e.U, e.V
	}

	// Trees and forests have no incremental contract: a new edge can
	// shorten any distance and re-root any subtree. Drop them.
	s.table, s.cols = nil, nil

	if s.labels == nil {
		return rep, nil
	}

	res, err := s.incremental(eu, ev)
	if err == nil {
		rep.Incremental = true
		rep.Rounds = res.Iterations
		rep.Run = res.Run
		// A merged root's component moves under its new root.
		sizes := s.sizes.Raw()
		for _, m := range res.Merged {
			sizes[m[1]] += sizes[m[0]]
			sizes[m[0]] = 0
		}
		s.components = res.Components
	} else {
		if err = s.superviseRecompute(rep); err != nil {
			return nil, err
		}
	}
	rep.Components = s.components

	if s.cfg.Verify {
		if err := s.verifyLabels(); err != nil {
			return nil, err
		}
		rep.Verified = true
	}
	return rep, nil
}

// incremental grafts the new edges onto the resident labels, returning a
// classified runtime failure as an error so Insert can fall back to the
// supervised full recompute when the update is cut down by a fault.
func (s *Service) incremental(eu, ev []int64) (res *cc.Result, err error) {
	defer pgas.Recover(&err)
	return cc.Incremental(s.rt, s.comm, s.labels.arr, eu, ev, &cc.Options{Col: s.labelSpec.Col}), nil
}

// superviseRecompute is the fallback label path: full re-execution of the
// resident labeling spec under the recover supervisor (rollback, remap
// onto survivors, re-execute). On success the service rebinds to the
// supervisor's final — possibly degraded — geometry and reinstalls the
// resident arrays there.
func (s *Service) superviseRecompute(rep *InsertReport) error {
	var full *KernelResult
	spec := s.labelSpec
	spec.Graph = s.g
	rrep, err := rec.Run(s.rt, nil, func(rt *pgas.Runtime, comm *collective.Comm) error {
		res, err := RunKernel(rt, comm, spec)
		if err == nil {
			full = res
		}
		return err
	})
	// The supervisor may have evicted threads: adopt its final runtime
	// and collective state. Arrays and plans are bound to the old
	// geometry; Insert already dropped the trees and the forest, and the
	// label columns are replaced or dropped here.
	s.rt, s.comm = rrep.Runtime, rrep.Comm
	rep.Rollbacks = rrep.Rollbacks
	if err != nil {
		s.labels, s.sizes, s.components = nil, nil, 0
		return err
	}
	s.installLabels(full.Labels)
	rep.Rounds = full.Iterations
	rep.Run = full.Run
	return nil
}

// verifyLabels differentially checks the resident labeling against a
// from-scratch run of the resident labeling spec on a scratch cluster of
// the same geometry: label-for-label bit identity, not just the same
// partition — and the count and every size Insert keeps against a recount
// of it. A mismatch is an incremental-update bug, reported loudly.
func (s *Service) verifyLabels() error {
	rt, err := pgas.New(s.cfg.Machine)
	if err != nil {
		return fmt.Errorf("serve: verify cluster: %v", err)
	}
	spec := s.labelSpec
	spec.Graph = s.g
	full, err := RunKernel(rt, collective.NewComm(rt), spec)
	if err != nil {
		return fmt.Errorf("serve: verify recompute: %w", err)
	}
	got := s.labels.arr.Raw()
	sizes := make([]int64, len(full.Labels))
	var components int64
	for i, l := range full.Labels {
		if got[i] != l {
			return fmt.Errorf(
				"serve: incremental labels diverge from recompute at vertex %d: got %d, want %d",
				i, got[i], l)
		}
		if sizes[l] == 0 {
			components++
		}
		sizes[l]++
	}
	if s.components != components {
		return fmt.Errorf("serve: resident component count %d, recompute says %d", s.components, components)
	}
	for l, size := range s.sizes.Raw() {
		if size != sizes[l] {
			return fmt.Errorf("serve: resident size of label %d is %d, recompute says %d", l, size, sizes[l])
		}
	}
	return nil
}
