package serve

import (
	"fmt"
	"math"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

// Config parameterizes a Service.
type Config struct {
	// Machine is the modeled cluster geometry (used by New; NewOn takes
	// an existing runtime instead).
	Machine machine.Config
	// Col configures the collectives for query gathers and is the
	// default for kernel specs that carry none. Nil means
	// collective.Base().
	Col *collective.Options
	// Verify makes every incremental label update differentially verify
	// itself against a from-scratch recompute on a scratch cluster
	// (label-for-label). Expensive; for harnesses and smoke tests.
	Verify bool
}

// column is one resident array together with its query stream: the
// batch's requests against it, the plan that gathers them and the values
// gathered. The plan belongs to the array — replacing or dropping a column
// drops its plan — and an unchanged request vector re-executes it without
// the grouping sort and matrix publish, so the serving hot path rides
// collective.Plan reuse exactly like a kernel's inner loop. A Service has
// two: the labels, and the table of everything else.
type column struct {
	arr  *pgas.SharedArray
	plan *collective.Plan // nil until the first batch, and after a failed region
	req  []int64          // this batch's request vector; empty between batches
	idx  []int64          // the request vector plan was built for
	out  []int64          // gathered values, at idx's positions
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

	// labels is the resident label array (collapsed component-min labels)
	// with the one stream both same-component and component-size lookups
	// ask for labels; nil until a cc kernel ran. It is an array of its own
	// because cc.Incremental updates it in place.
	labels     *column
	sizes      *pgas.SharedArray // sizes[l] = |component l| for canonical labels l
	components int64
	labelSpec  KernelSpec // how labels were produced (supervised recompute re-runs it)

	// table holds every immutable per-vertex result, row-major, and is the
	// only copy of it: vertex v's entry in column c is table[v·k + c] for
	// the k = len(cols) resident columns, and block ownership of k·n words
	// keeps a vertex's row on the vertex's owner. cols[c] says what column
	// c holds — a distance tree's source, or forestCol for the tree parents
	// (-1 for roots) — in ascending order. Built by adopt, dropped whole by
	// Insert; nil while nothing of the kind is resident.
	table *column
	cols  []int64

	// Batch scratch. at[i] is where lookup i's answer sits in its stream's
	// out (for a component-size lookup, in sizeOut); sizeAt[j] is where the
	// j-th size lookup's label sits in labels.out, whence sizeIdx[j].
	at, sizeAt       []int
	sizeIdx, sizeOut []int64
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
		col: collective.Sanitize(cfg.Col, false),
		g:   g.Clone(),
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
	if s.labels == nil {
		return nil
	}
	return slices.Clone(s.labels.arr.Raw())
}

// resident names the resident results, for introspection.
func (s *Service) resident() []string {
	var r []string
	if s.labels != nil {
		r = append(r, "labels", "sizes")
	}
	for _, col := range s.cols {
		if col == forestCol {
			r = append(r, "parent")
		} else {
			r = append(r, fmt.Sprintf("dist[%d]", col))
		}
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
	if res.Dist != nil || res.Parent != nil {
		s.retable(spec.Src, res.Dist, res.Parent)
	}
}

// forestCol names the tree parents' column; it sorts after every source.
const forestCol = math.MaxInt64

// retable rebuilds the table around a new result — dist as src's tree,
// parent as the forest, either nil when the result has none — carrying the
// other resident columns over from the old table. A new array, so a new
// plan: the row length, and with it every index, may have changed.
func (s *Service) retable(src int64, dist, parent []int64) {
	fresh := map[int64][]int64{src: dist, forestCol: parent}
	old, oldCols := s.table, s.cols
	s.cols = slices.Clone(oldCols)
	for col, vals := range fresh {
		if at, had := slices.BinarySearch(s.cols, col); vals != nil && !had {
			s.cols = slices.Insert(s.cols, at, col)
		}
	}
	k, oldK := int64(len(s.cols)), int64(len(oldCols))
	s.table = &column{arr: s.rt.NewSharedArray("serve.table", k*s.g.N)}
	raw := s.table.arr.Raw()
	for c, col := range s.cols {
		from, fk, fc := fresh[col], int64(1), 0
		if from == nil {
			fc, _ = slices.BinarySearch(oldCols, col)
			from, fk = old.arr.Raw(), oldK
		}
		for v := int64(0); v < s.g.N; v++ {
			raw[v*k+int64(c)] = from[v*fk+int64(fc)]
		}
	}
}

// installLabels makes a host-side labeling resident, with its sizes.
func (s *Service) installLabels(labels []int64) {
	s.labels = &column{arr: s.rt.NewSharedArray("serve.labels", s.g.N)}
	copy(s.labels.arr.Raw(), labels)
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
	for _, l := range s.labels.arr.Raw() {
		if sizes[l] == 0 {
			s.components++
		}
		sizes[l]++
	}
}
