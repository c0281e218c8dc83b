// Package serve turns the kernel library into a long-lived graph service:
// a uniform name-dispatched kernel entry (KernelSpec → KernelResult), a
// Service that keeps kernel results resident in the PGAS cluster and
// answers batched point queries as coalesced bulk gathers, incremental
// connected components under edge insertions, and the length-prefixed
// frame protocol cmd/pgasd speaks over a unix socket. See docs/SERVING.md.
package serve

import (
	"errors"
	"fmt"
	"sort"

	"pgasgraph/internal/bfs"
	"pgasgraph/internal/cc"
	"pgasgraph/internal/collective"
	"pgasgraph/internal/euler"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sssp"
)

// KernelSpec names one kernel run: which kernel, on which input, with
// which options. It is the one way to invoke a kernel — Cluster.Run, the
// Service, pgasd's wire protocol, pgasrun, internal/bench and benchmark/
// all enter through RunKernel with one.
type KernelSpec struct {
	// Kernel is the registry name (see Kernels): "cc/coalesced",
	// "bfs/coalesced", "sssp/delta-stepping", "mst/coalesced", ...
	Kernel string `json:"kernel"`
	// Graph is the input. The Service fills it with its resident graph;
	// direct Cluster.Run callers pass their own.
	Graph *graph.Graph `json:"-"`
	// List is the input of the list kernels (listrank/*), which take no
	// graph. Like Graph it does not travel, and the Service holds none: a
	// list kernel asked for over pgasd answers misuse.
	List *listrank.List `json:"-"`
	// Col configures the collectives; nil means collective.Base().
	Col *collective.Options `json:"col,omitempty"`
	// Compact enables edge compaction in cc/coalesced, spanning-forest and
	// mst/coalesced; the other rows, cc/sv and cc/lt-* too, ignore it.
	Compact bool `json:"compact,omitempty"`
	// Src is the BFS/SSSP source vertex.
	Src int64 `json:"src,omitempty"`
	// Delta is the SSSP bucket width (<= 0 selects the kernel default).
	Delta int64 `json:"delta,omitempty"`
}

// KernelResult is the uniform outcome of a dispatched kernel run. Fields
// not produced by the kernel stay zero/nil; Run and Detail are always set.
type KernelResult struct {
	// Kernel echoes the spec's registry name.
	Kernel string
	// Labels is the canonical component labeling (cc/*, spanning-forest).
	Labels []int64
	// Components is the component count (cc/*, spanning-forest).
	Components int64
	// Dist holds per-vertex distances (bfs/*: hops, sssp/*: weighted);
	// unreached vertices hold bfs.Unreached / sssp.Unreached.
	Dist []int64
	// Parent is the per-vertex tree parent, -1 for roots
	// (spanning-forest, via the Euler tour).
	Parent []int64
	// Edges are chosen edge ids (mst/*, spanning-forest).
	Edges []int64
	// Weight is the forest weight (mst/*).
	Weight uint64
	// Iterations counts outer rounds (kernel-specific: grafts, Borůvka
	// rounds, BFS levels, SSSP buckets, jump rounds).
	Iterations int
	// Run carries the simulated-time accounting.
	Run *pgas.Result
	// Detail is the kernel package's own result, the row's type
	// (*cc.Result, *cc.SpanningForest for spanning-forest, *mst.Result, ...;
	// docs/API.md has the table) — everything the uniform fields above do
	// not carry. It never travels: the Service and the wire read only the
	// uniform fields.
	Detail any
}

// sum is a deterministic content checksum over the result's payload
// arrays — what a remote caller compares against an offline oracle run
// without shipping million-entry arrays.
func (r *KernelResult) sum() int64 {
	var s int64
	for _, v := range r.Labels {
		s += v
	}
	for _, v := range r.Dist {
		s += v & 0xffffffff // clamp Unreached sentinels into additive range
	}
	for _, v := range r.Parent {
		s += v
	}
	for _, v := range r.Edges {
		s += v
	}
	return s + int64(r.Weight) + r.Components
}

// kernelEntry is one registry row: the definition of a kernel. What
// RunKernel must validate before the kernel may run is data on the row; the
// kernel and its oracle are the row's two functions.
type kernelEntry struct {
	name     string
	weighted bool // requires edge weights
	list     bool // ranks spec.List; every other row runs on spec.Graph
	// run calls the kernel and returns its package's own result type,
	// which uniform lays out as a KernelResult; verify checks that outcome
	// against the package's sequential oracle.
	run    runFunc
	verify verifyFunc
}

type (
	runFunc    = func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any
	verifyFunc = func(s *KernelSpec, res *KernelResult) error
)

// uniform lays a kernel package's result out as a KernelResult: the package
// result whole as Detail, what it carries that the Service, Sum and the
// wire read copied (by reference) into the uniform fields.
func uniform(kernel string, detail any) *KernelResult {
	res := &KernelResult{Kernel: kernel, Detail: detail}
	switch r := detail.(type) {
	case *cc.Result:
		res.Labels, res.Components, res.Iterations, res.Run = r.Labels, r.Components, r.Iterations, r.Run
	case *rootedForest:
		res = uniform(kernel, r.sf.CC)
		res.Parent, res.Edges, res.Detail = r.parent, r.sf.Edges, r.sf
	case *bfs.Result:
		res.Dist, res.Iterations, res.Run = r.Dist, r.Levels, r.Run
	case *sssp.Result:
		res.Dist, res.Iterations, res.Run = r.Dist, r.Buckets, r.Run
	case *mst.Result:
		res.Edges, res.Weight, res.Iterations, res.Run = r.Edges, r.Weight, r.Iterations, r.Run
	case *listrank.Result:
		res.Iterations, res.Run = r.Rounds, r.Run
	default:
		panic(fmt.Sprintf("serve: %s returned a %T, which uniform does not lay out", kernel, detail))
	}
	return res
}

// rootedForest is what the spanning-forest row runs: the forest kernel,
// then the Euler tour — the building block that roots it — over its edges.
// The forest is the row's Detail and its run the run accounted; the tour
// contributes the parents.
type rootedForest struct {
	sf     *cc.SpanningForest
	parent []int64
}

// The kernels come in a few shapes; one adapter per shape makes a row's run
// the kernel function itself, R its package's result type.

// labeling: the collective CC kernels' shape, options from Col and Compact.
func labeling[R any](k func(*pgas.Runtime, *collective.Comm, *graph.Graph, *cc.Options) R) runFunc {
	return func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
		return k(rt, comm, s.Graph, &cc.Options{Col: s.Col, Compact: s.Compact})
	}
}

// liuTarjan: the labeling kernel of one Liu-Tarjan rule triple.
func liuTarjan(v cc.LTVariant) runFunc {
	return labeling(func(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, o *cc.Options) *cc.Result {
		return cc.LiuTarjan(rt, comm, g, v, o)
	})
}

// oneSided: the literal translations, which use no collective and no option.
func oneSided[R any](k func(*pgas.Runtime, *graph.Graph) R) runFunc {
	return func(rt *pgas.Runtime, _ *collective.Comm, s *KernelSpec) any { return k(rt, s.Graph) }
}

// onDetail adapts an oracle that reads the package's own result type.
func onDetail[R any](check func(*graph.Graph, R) error) verifyFunc {
	return func(s *KernelSpec, res *KernelResult) error { return check(s.Graph, res.Detail.(R)) }
}

func verifyLabels(s *KernelSpec, res *KernelResult) error {
	return cc.VerifyLabels(s.Graph, res.Labels)
}

// onDist adapts a single-source oracle.
func onDist(check func(g *graph.Graph, src int64, dist []int64) error) verifyFunc {
	return func(s *KernelSpec, res *KernelResult) error { return check(s.Graph, s.Src, res.Dist) }
}

func verifyRanks(s *KernelSpec, res *KernelResult) error {
	return listrank.VerifyRanks(s.List, res.Detail.(*listrank.Result).Ranks)
}

// registry is the kernel table. Order is the presentation order of
// Kernels().
var registry = []kernelEntry{
	{name: "cc/coalesced", run: labeling(cc.Coalesced), verify: verifyLabels},
	{name: "cc/sv", run: labeling(cc.SV), verify: verifyLabels},
	{name: "cc/fastsv", run: labeling(cc.FastSV), verify: verifyLabels},
	{name: "cc/lt-prs", run: liuTarjan(cc.LTPRS), verify: verifyLabels},
	{name: "cc/lt-pus", run: liuTarjan(cc.LTPUS), verify: verifyLabels},
	{name: "cc/lt-ers", run: liuTarjan(cc.LTERS), verify: verifyLabels},
	{name: "cc/naive", run: oneSided(cc.Naive), verify: verifyLabels},
	{name: "cc/merge-cgm", run: oneSided(cc.MergeCGM), verify: verifyLabels},
	{name: "spanning-forest",
		run: labeling(func(rt *pgas.Runtime, comm *collective.Comm, g *graph.Graph, o *cc.Options) *rootedForest {
			sf := cc.SpanningTree(rt, comm, g, o)
			return &rootedForest{sf, euler.Tour(rt, comm, sf.Forest(g), sf.CC.Labels, o.Col)}
		}),
		verify: func(s *KernelSpec, res *KernelResult) error {
			sf := &cc.SpanningForest{Edges: res.Edges, CC: &cc.Result{Labels: res.Labels, Components: res.Components}}
			if err := cc.VerifySpanningForest(s.Graph, sf); err != nil {
				return err
			}
			return euler.VerifyParents(sf.Forest(s.Graph), res.Parent)
		}},
	{name: "bfs/coalesced", verify: onDist(bfs.VerifyDistances),
		run: func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
			return bfs.Coalesced(rt, comm, s.Graph, s.Src, s.Col)
		}},
	{name: "sssp/delta-stepping", weighted: true, verify: onDist(sssp.VerifyDistances),
		run: func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
			return sssp.DeltaStepping(rt, comm, s.Graph, s.Src, s.Delta, s.Col)
		}},
	{name: "mst/coalesced", weighted: true, verify: onDetail(mst.VerifyForest),
		run: func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
			return mst.Coalesced(rt, comm, s.Graph, &mst.Options{Col: s.Col, Compact: s.Compact})
		}},
	{name: "mst/naive", weighted: true, run: oneSided(mst.Naive), verify: onDetail(mst.VerifyForest)},
	{name: "listrank/wyllie", list: true, verify: verifyRanks,
		run: func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
			return listrank.Wyllie(rt, comm, s.List, s.Col)
		}},
	{name: "listrank/cgm", list: true, verify: verifyRanks,
		run: func(rt *pgas.Runtime, comm *collective.Comm, s *KernelSpec) any {
			return listrank.CGM(rt, comm, s.List, s.Col)
		}},
}

// TakesList reports whether the named kernel ranks KernelSpec.List instead
// of running on KernelSpec.Graph. Unknown names report false.
func TakesList(name string) bool {
	entry, err := lookup(name)
	return err == nil && entry.list
}

// Weighted reports whether the named kernel needs edge weights on
// KernelSpec.Graph. Unknown names report false.
func Weighted(name string) bool {
	entry, err := lookup(name)
	return err == nil && entry.weighted
}

// Kernels returns the registry names in presentation order.
func Kernels() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup finds a registry row by name; misses are reported with the full
// sorted name list so a typo is self-correcting.
func lookup(name string) (*kernelEntry, error) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	known := Kernels()
	sort.Strings(known)
	return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run",
		"unknown kernel %q (known: %v)", name, known)
}

// admit finds spec's row and checks everything that must hold before the
// kernel may run, as the row states it: the input it runs on present and
// valid, weights, source range, options. Every refusal is ErrMisuse.
func admit(spec *KernelSpec) (*kernelEntry, error) {
	entry, err := lookup(spec.Kernel)
	if err != nil {
		return nil, err
	}
	switch g := spec.Graph; {
	case entry.list && spec.List == nil:
		err = errors.New("ranks KernelSpec.List, and none was given")
	case entry.list:
		err = spec.List.Validate()
	case g == nil:
		err = errors.New("nil graph")
	default:
		err = g.Validate()
		if err == nil && entry.weighted && !g.Weighted() {
			err = errors.New("needs edge weights; the loaded graph has none")
		}
		if err == nil && (spec.Src < 0 || spec.Src >= g.N) {
			err = fmt.Errorf("source %d out of range [0,%d)", spec.Src, g.N)
		}
	}
	if err == nil {
		// Validate the sanitized form: the kernels themselves accept
		// VirtualThreads 0 as "disabled" (Sanitize maps it to 1), so dispatch
		// must not be stricter than the kernels it fronts.
		err = collective.Sanitize(spec.Col, true).Validate()
	}
	if err != nil {
		return nil, pgas.Errorf(pgas.ErrMisuse, -1, "serve.run", "%s: %v", spec.Kernel, err)
	}
	return entry, nil
}

// RunKernel validates spec against its row and dispatches it on the given
// cluster. Misconfiguration — unknown kernel name, a missing or invalid
// input (a graph kernel without a graph, a list kernel without a list),
// invalid options, a weighted kernel on an unweighted graph, a source out
// of range — returns a classified pgas.ErrMisuse; classified runtime
// failures (chaos faults, evictions) come back as their own classes.
// Kernel bugs still panic.
//
// The kernel's shared state — its arrays, plans and reducers — lives until
// RunKernel returns: the result holds host slices only, so everything the
// run allocated on rt is released on the way out (pgas.Runtime.Release),
// panic or not, and a long-lived cluster carries no trace of finished runs.
func RunKernel(rt *pgas.Runtime, comm *collective.Comm, spec KernelSpec) (res *KernelResult, err error) {
	entry, err := admit(&spec)
	if err != nil {
		return nil, err
	}
	defer rt.Release(rt.Mark())
	defer pgas.Recover(&err)
	return uniform(spec.Kernel, entry.run(rt, comm, &spec)), nil
}

// Verify checks res, the outcome of RunKernel(spec), against the sequential
// oracle of spec's kernel — the one its package exports and the verify
// harness runs. It re-derives the answer on the host: for tests, pgasrun
// and examples, not for a serving path. A spec RunKernel would refuse (a
// Service.Run caller's spec holds no Graph: hand it the graph) or a res
// that is not a run of spec's kernel is ErrMisuse, not a panic.
func Verify(spec KernelSpec, res *KernelResult) error {
	entry, err := admit(&spec)
	if err != nil {
		return err
	}
	if res == nil || res.Kernel != spec.Kernel {
		return pgas.Errorf(pgas.ErrMisuse, -1, "serve.verify", "%s: the result is not a run of this kernel", spec.Kernel)
	}
	return entry.verify(&spec, res)
}
