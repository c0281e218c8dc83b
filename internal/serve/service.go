package serve

import (
	"fmt"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	rec "pgasgraph/internal/recover"
)

// Config parameterizes a Service.
type Config struct {
	// Machine is the modeled cluster geometry (used by New; NewOn takes
	// an existing runtime instead).
	Machine machine.Config
	// Col configures the collectives for query gathers and is the
	// default for kernel specs that carry none. Nil means
	// collective.Defaults().
	Col *collective.Options
	// Recover bounds the supervised full-recompute fallback (rollback
	// budget, minimum survivors, checkpoint cadence). Nil selects the
	// supervisor defaults.
	Recover *rec.Config
	// Verify makes every incremental label update differentially verify
	// itself against a from-scratch recompute on a scratch cluster
	// (label-for-label). Expensive; for harnesses and smoke tests.
	Verify bool
}

// column is one resident result array together with its query stream: the
// batch's requests against it, the plan that gathers them and the values
// gathered. The plan belongs to the array — replacing or dropping a column
// drops its plan — and an unchanged request vector re-executes it without
// the grouping sort and matrix publish, so the serving hot path rides
// collective.Plan reuse exactly like a kernel's inner loop.
type column struct {
	arr  *pgas.SharedArray
	plan *collective.Plan // nil until the first batch, and after a failed region
	req  []int64          // this batch's request vector; empty between batches
	idx  []int64          // the request vector plan was built for
	out  []int64          // gathered values, at idx's positions
	next int              // answer cursor into out; 0 between batches
}

// newColumn makes vals resident as a fresh array named name.
func (s *Service) newColumn(name string, vals []int64) *column {
	c := &column{arr: s.rt.NewSharedArray(name, s.g.N)}
	copy(c.arr.Raw(), vals)
	return c
}

// Service is a resident graph plus the kernel results serving point
// queries. It owns (or borrows) one PGAS cluster; like a Cluster it is
// not goroutine-safe — callers serialize (cmd/pgasd holds a mutex).
type Service struct {
	rt   *pgas.Runtime
	comm *collective.Comm
	cfg  Config
	col  *collective.Options
	g    *graph.Graph

	// same and size are the two query streams over the one resident label
	// array (collapsed component-min labels); nil until a cc kernel ran.
	same, size *column
	sizes      *pgas.SharedArray // sizes[l] = |component l| for canonical labels l
	components int64
	labelSpec  KernelSpec // how labels were produced (supervised recompute re-runs it)

	dist   map[int64]*column // src -> resident single-source distances
	parent *column           // tree parents, -1 for roots

	sizeOut []int64 // sizes gathered at the size stream's labels
}

// New builds a Service with its own cluster. The graph is cloned: edge
// insertions mutate only the resident copy.
func New(cfg Config, g *graph.Graph) (*Service, error) {
	if err := collective.ValidateGeometry(cfg.Machine.Nodes * cfg.Machine.ThreadsPerNode); err != nil {
		return nil, err
	}
	rt, err := pgas.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	return NewOn(rt, collective.NewComm(rt), g, cfg)
}

// NewOn builds a Service over an existing runtime and collective state —
// the harness and test entry, and what Cluster.Serve delegates to.
func NewOn(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, cfg Config) (*Service, error) {
	if g == nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.new", "nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.new", "%v", err)
	}
	// Validate the sanitized form: kernels accept VirtualThreads 0 as
	// "disabled", so the service front door must too.
	if err := collective.Sanitize(cfg.Col, false).Validate(); err != nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.new", "%v", err)
	}
	cfg.Machine = rt.Config()
	return &Service{
		rt:   rt,
		comm: comm,
		cfg:  cfg,
		// Offload pins an (index, value) pair; query streams have no such
		// constant, so serving always gathers unfiltered.
		col:  collective.Sanitize(cfg.Col, false),
		g:    g.Clone(),
		dist: map[int64]*column{},
	}, nil
}

// Runtime exposes the cluster for instrumentation (tracing, chaos).
func (s *Service) Runtime() *pgas.Runtime { return s.rt }

// Comm exposes the collective state for instrumentation.
func (s *Service) Comm() *collective.Comm { return s.comm }

// Graph returns the resident graph (read-only; Insert mutates it).
func (s *Service) Graph() *graph.Graph { return s.g }

// Components returns the resident component count (0 before any cc run).
func (s *Service) Components() int64 { return s.components }

// Labels returns a copy of the resident labeling, or nil if none.
func (s *Service) Labels() []int64 {
	if s.same == nil {
		return nil
	}
	return slices.Clone(s.same.arr.Raw())
}

// sources lists the resident distance trees' sources in ascending order.
func (s *Service) sources() []int64 {
	srcs := make([]int64, 0, len(s.dist))
	for src := range s.dist {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	return srcs
}

// Resident names the resident result arrays, for introspection.
func (s *Service) Resident() []string {
	var r []string
	if s.same != nil {
		r = append(r, "labels", "sizes")
	}
	for _, src := range s.sources() {
		r = append(r, fmt.Sprintf("dist[%d]", src))
	}
	if s.parent != nil {
		r = append(r, "parent")
	}
	return r
}

// Run dispatches spec on the resident graph and installs its result
// arrays for serving: labels and component sizes from a cc kernel,
// distances keyed by source from bfs/sssp, tree parents from
// spanning-forest. Specs carrying no collective options inherit the
// service's.
func (s *Service) Run(spec KernelSpec) (*KernelResult, error) {
	spec.Graph = s.g
	if spec.Col == nil {
		spec.Col = s.cfg.Col
	}
	res, err := RunKernel(s.rt, s.comm, spec)
	if err != nil {
		return nil, err
	}
	s.adopt(spec, res)
	return res, nil
}

// adopt installs a kernel result's arrays as resident serving state.
func (s *Service) adopt(spec KernelSpec, res *KernelResult) {
	if res.Labels != nil {
		s.installLabels(res.Labels)
		s.labelSpec = spec
	}
	if res.Dist != nil {
		s.dist[spec.Src] = s.newColumn(fmt.Sprintf("serve.dist.%d", spec.Src), res.Dist)
	}
	if res.Parent != nil {
		s.parent = s.newColumn("serve.parent", res.Parent)
	}
}

// installLabels makes a host-side labeling resident, with its sizes.
func (s *Service) installLabels(labels []int64) {
	s.same = s.newColumn("serve.labels", labels)
	s.size = &column{arr: s.same.arr}
	s.sizes = s.rt.NewSharedArray("serve.sizes", s.g.N)
	s.recount()
}

// recount rebuilds the size array and the component count from the
// resident labels. Labels are canonical — each names a vertex — so the
// first vertex counted under a label is a new component.
func (s *Service) recount() {
	sizes := s.sizes.Raw()
	clear(sizes)
	s.components = 0
	for _, l := range s.same.arr.Raw() {
		if sizes[l] == 0 {
			s.components++
		}
		sizes[l]++
	}
}
