// Package experiments regenerates every figure of the paper's evaluation
// (Figures 2-10; the paper reports no result tables) and the extension
// experiments at a configurable scale. Every experiment is one Sweep row:
// an input generator and its axis points, the series measured at each
// point — registry kernels run through Config.run by name, or reference
// lines such as the sequential baselines — and its columns, notes and
// shape checks, as data. One Table renders any row and one CheckShape
// asserts the paper's qualitative finding on it — who wins, by roughly
// what factor, where the extrema fall — which is what this reproduction
// claims to preserve (see DESIGN.md §2).
//
// Scaling: inputs shrink by Config.Scale relative to the paper's (100M+
// vertex) graphs, and the modeled cache shrinks proportionally (times
// CacheScale) so that the working-set-to-cache ratios that drive the
// paper's cache effects are preserved at the smaller scale.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/listrank"
	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/report"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/serve"
	"pgasgraph/internal/sim"
	"pgasgraph/internal/sssp"
)

// Config controls experiment scale and the modeled machine.
type Config struct {
	// Scale is the input-size fraction of the paper's experiments
	// (1.0 = the paper's 100M-vertex graphs). Default 0.01.
	Scale float64
	// Nodes is the cluster node count. Default 16 (the paper's).
	Nodes int
	// Seed feeds the graph generators. Default 42.
	Seed uint64
	// CacheScale multiplies the proportionally scaled cache size;
	// it positions the virtual-thread sweet spot at the paper's t'
	// range. Default 3.5.
	CacheScale float64
	// Base is the machine preset to scale. Nil means PaperCluster.
	Base *machine.Config
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.CacheScale <= 0 {
		c.CacheScale = 3.5
	}
	if c.Base == nil {
		base := machine.PaperCluster()
		c.Base = &base
	}
	return c
}

// n scales a paper vertex/edge count, with a floor that keeps tiny test
// scales structurally meaningful.
func (c Config) n(paperCount int64) int64 {
	return max(int64(float64(paperCount)*c.Scale), 256)
}

// randomGraph generates the scaled uniform random graph for the given
// paper-scale dimensions.
func (c Config) randomGraph(paperN, paperM int64) *graph.Graph {
	return graph.Random(c.n(paperN), c.n(paperM), c.Seed)
}

// Paper input dimensions referenced across rows.
const (
	paper10M  = 10_000_000
	paper100M = 100_000_000
	paper400M = 400_000_000
	paper1G   = 1_000_000_000
)

// Point is one axis point of a sweep — one line of its table: the inputs
// and the settings its series run under, each series on its own copy.
type Point struct {
	Label string
	Graph *graph.Graph
	// Other is a second input: hybrid's same-size random graph, scaling's
	// weak-scaling graph.
	Other *graph.Graph
	List  *listrank.List
	// Kernel is the registry kernel of the series that name none.
	Kernel         string
	Nodes, Threads int
	Col            *collective.Options
	Compact        bool
	Delta          int64
	// Base is the machine preset; Config scales its cache.
	Base *machine.Config
	// Memory is one node's memory in bytes; 0 keeps the preset's.
	Memory int64
}

// point is an axis point at the paper's best configuration (§VI): every
// node, min(8, the preset's) threads per node, Optimized(2) collectives
// with compaction.
func (c Config) point(label string) Point {
	return Point{Label: label, Nodes: c.Nodes, Threads: min(8, c.Base.ThreadsPerNode),
		Col: collective.Optimized(2), Compact: true, Base: c.Base}
}

// machine is p's machine: its preset at p's geometry, with a cache shrunk
// in proportion to the inputs so miss ratios match the paper's.
func (c Config) machine(p *Point) machine.Config {
	m := *p.Base
	m.Nodes, m.ThreadsPerNode = p.Nodes, p.Threads
	m.CacheBytes = max(int64(float64(m.CacheBytes)*c.Scale*c.CacheScale), 4096)
	if p.Memory > 0 {
		m.NodeMemoryBytes = p.Memory
	}
	return m
}

// model is the cost model of one thread of p's machine: what a sequential
// reference line is charged.
func (c Config) model(p *Point) *sim.Model {
	q := *p
	q.Nodes, q.Threads = 1, 1
	return sim.NewModel(c.machine(&q))
}

// runtime builds a runtime for p's machine, panicking on an invalid one
// (rows are code, not user input).
func (c Config) runtime(p *Point) *pgas.Runtime {
	rt, err := pgas.New(c.machine(p))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rt
}

// run runs one registry kernel on a fresh runtime for p, panicking on a
// refused spec or on an answer its row's oracle rejects.
func (c Config) run(kernel string, p *Point) *serve.KernelResult {
	rt := c.runtime(p)
	spec := serve.KernelSpec{Kernel: kernel, Graph: p.Graph, List: p.List, Col: p.Col, Compact: p.Compact, Delta: p.Delta}
	res, err := serve.RunKernel(rt, collective.NewComm(rt), spec)
	if err == nil {
		err = serve.Verify(spec, res)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// series is one measured line of a sweep: a registry kernel run through
// Config.run, or — when ref is set — a reference line computed on the
// host (the sequential baselines) or on a runtime of its own.
type series struct {
	name   string
	kernel string // "" runs the point's Kernel
	ref    func(c Config, p *Point) float64
	set    func(p *Point) // the series' own settings
	// steps is an inner axis: the series runs at each value, through step,
	// and reports the fastest.
	steps []int
	step  func(p *Point, v int)
	// line, when set, makes the series a horizontal line: measured once, at
	// the first point, and printed under the table as a row of that label,
	// its simulated ms and cells (missing ones print empty).
	line  string
	cells []func(v *view) string
}

// column is one table column: its header and how a point's cell reads.
type column struct {
	head string
	cell func(v *view) string
}

// Sweep is one experiment: a row of pgasbench's, or of the baseline's.
type Sweep struct {
	// Name is the row's pgasbench name.
	Name string
	// Points generates the axis points with their inputs, handing each to
	// yield in table order; the run drops a point's inputs once its series
	// are measured, so a row holds one point's inputs at a time.
	Points func(c Config, yield func(Point))
	series []series
	// The table's title, columns and notes (note, when set, is the first
	// and computed), and the shape check read the measurements through a
	// view.
	title   func(v *view) string
	columns []column
	note    func(v *view) string
	notes   []string
	check   func(v *view) error
}

// Measure is one series' outcome at one point.
type Measure struct {
	Kernel      string // the registry kernel that ran; "" for a reference line
	N, M        int64  // the input's vertices (list nodes) and edges
	NS          float64
	Iterations  int
	Run         *pgas.Result // nil for a reference line
	Relaxations int64        // sssp/delta-stepping's applied relaxations
	// Steps holds a stepped series' runs, one per step; the fields above
	// are the fastest's, Steps[Best].
	Steps []Measure
	Best  int
}

// Result is a measured sweep.
type Result struct {
	sweep  Sweep
	cfg    Config
	Points []Point
	// Measures[i][j] is series j at point i.
	Measures [][]Measure
}

// Run measures the sweep: every series at every point, every line once,
// at the first.
func (s Sweep) Run(c Config) *Result {
	c = c.withDefaults()
	r := &Result{sweep: s, cfg: c}
	s.Points(c, func(p Point) {
		row := make([]Measure, len(s.series))
		for j, se := range s.series {
			if se.line == "" || r.Points == nil {
				row[j] = c.measure(se, p)
			} else {
				row[j] = r.Measures[0][j]
			}
		}
		p.Graph, p.Other, p.List = nil, nil, nil
		r.Points, r.Measures = append(r.Points, p), append(r.Measures, row)
	})
	return r
}

func (c Config) measure(s series, p Point) Measure {
	if s.set != nil {
		s.set(&p)
	}
	if s.steps == nil {
		return c.measureOnce(s, &p)
	}
	var m Measure
	for j, v := range s.steps {
		q := p
		s.step(&q, v)
		m.Steps = append(m.Steps, c.measureOnce(s, &q))
		if m.Steps[j].NS < m.Steps[m.Best].NS {
			m.Best = j
		}
	}
	best := m.Steps[m.Best]
	best.Steps, best.Best = m.Steps, m.Best
	return best
}

func (c Config) measureOnce(s series, p *Point) Measure {
	var m Measure
	switch {
	case p.Graph != nil:
		m.N, m.M = p.Graph.N, p.Graph.M()
	case p.List != nil:
		m.N = p.List.N
	}
	if s.ref != nil {
		m.NS = s.ref(c, p)
		return m
	}
	m.Kernel = cmp.Or(s.kernel, p.Kernel)
	res := c.run(m.Kernel, p)
	m.NS, m.Iterations, m.Run = res.Run.SimNS, res.Iterations, res.Run
	if d, ok := res.Detail.(*sssp.Result); ok {
		m.Relaxations = d.Relaxations
	}
	return m
}

// Cell returns the measure of the named series at point i.
func (r *Result) Cell(i int, name string) Measure {
	j := slices.IndexFunc(r.sweep.series, func(s series) bool { return s.name == name })
	if j < 0 {
		panic(fmt.Sprintf("experiments: %s has no series %q", r.sweep.Name, name))
	}
	return r.Measures[i][j]
}

// view reads one point's measurements for a cell, a note or a check.
type view struct {
	r *Result
	i int
}

func (v *view) at(i int) *view {
	w := *v
	w.i = i
	return &w
}

// of is the view of the point labelled label.
func (v *view) of(label string) *view {
	i := slices.IndexFunc(v.r.Points, func(p Point) bool { return p.Label == label })
	if i < 0 {
		panic(fmt.Sprintf("experiments: %s has no point %q", v.r.sweep.Name, label))
	}
	return v.at(i)
}

func (v *view) p() *Point { return &v.r.Points[v.i] }

// size is the point's first measure, read for the input size it ran on.
func (v *view) size() Measure { return v.r.Measures[v.i][0] }

func (v *view) get(name string) Measure { return v.r.Cell(v.i, name) }

func (v *view) ns(name string) float64 { return v.get(name).NS }

// best is the view of the point where the named series is fastest.
func (v *view) best(name string) *view {
	b := v.at(0)
	for i := range v.r.Points {
		if v.at(i).ns(name) < b.ns(name) {
			b = v.at(i)
		}
	}
	return b
}

// Table renders the result: a row per point, then the horizontal lines.
func (r *Result) Table() *report.Table {
	s := &r.sweep
	read := func(i int, cell func(*view) string) string { return cell(&view{r: r, i: i}) }
	heads := make([]string, len(s.columns))
	for j, c := range s.columns {
		heads[j] = c.head
	}
	t := report.NewTable(read(0, s.title), heads...)
	for i := range r.Points {
		cells := make([]string, len(s.columns))
		for j, c := range s.columns {
			cells[j] = read(i, c.cell)
		}
		t.AddRow(cells...)
	}
	for _, l := range s.series {
		if l.line == "" {
			continue
		}
		cells := make([]string, len(s.columns))
		cells[0], cells[1] = l.line, read(0, ms(l.name))
		for j, cell := range l.cells {
			cells[2+j] = read(0, cell)
		}
		t.AddRow(cells...)
	}
	if s.note != nil {
		t.AddNote("%s", read(0, s.note))
	}
	for _, n := range s.notes {
		t.AddNote("%s", n)
	}
	return t
}

// CheckShape runs the row's shape check; a failure names the row.
func (r *Result) CheckShape() error {
	if r.sweep.check == nil {
		return nil
	}
	if err := r.sweep.check(&view{r: r}); err != nil {
		return fmt.Errorf("%s: %w", r.sweep.Name, err)
	}
	return nil
}

// Cells, notes and checks the rows share.

func label(v *view) string { return v.p().Label }
func nOf(v *view) string   { return report.Count(v.size().N) }
func mOf(v *view) string   { return report.Count(v.size().M) }

func ms(name string) func(*view) string {
	return func(v *view) string { return report.MS(v.ns(name)) }
}

func ratio(num, den string) func(*view) string {
	return func(v *view) string { return report.Ratio(v.ns(num) / v.ns(den)) }
}

func iterations(name string) func(*view) string {
	return func(v *view) string { return fmt.Sprint(v.get(name).Iterations) }
}

// each runs check at every point, naming the point in its error.
func each(check func(v *view) error) func(*view) error {
	return func(v *view) error {
		for i, p := range v.r.Points {
			if err := check(v.at(i)); err != nil {
				return fmt.Errorf("%s: %w", p.Label, err)
			}
		}
		return nil
	}
}

// smp is the SMP implementation's line: the literal translation of the
// point's kernel (the registry names it x/naive beside x/coalesced) on
// every thread of one node.
var smp = series{name: "smp", set: func(p *Point) {
	p.Nodes, p.Threads = 1, p.Base.ThreadsPerNode
	p.Kernel = strings.Replace(p.Kernel, "/coalesced", "/naive", 1)
}}

// sequential is the best sequential implementation's line for the point
// kernel: union-find CC, or Kruskal with merge sort for MST.
var sequential = series{name: "seq", ref: func(c Config, p *Point) float64 {
	if serve.Weighted(p.Kernel) {
		_, ns := seq.KruskalTimed(p.Graph, c.model(p))
		return ns
	}
	_, ns := seq.CCTimed(p.Graph, c.model(p))
	return ns
}}

// line makes s a horizontal line labelled label, printing cells after its
// simulated ms.
func line(s series, label string, cells ...func(*view) string) series {
	s.line, s.cells = label, cells
	return s
}

// threadsPerNode sets p to t threads per node; the paper simulates three
// recursion levels with t*t' = 16 virtual processors per node, t' = 16/t.
func threadsPerNode(p *Point, t int) {
	maxTPN := p.Base.ThreadsPerNode
	p.Threads = min(t, maxTPN)
	p.Col = collective.Optimized(max(maxTPN/p.Threads, 1))
}

// All lists the rows pgasbench prints: the paper's Figures 2-10 in order,
// then the extension experiments.
func All() []Sweep {
	return []Sweep{fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
		listRank, bfsDiameter, ccMerge, outOfCore, scaling, sensitivity, ssspDelta, hybrid}
}

// Row returns the named row: one of All, or converge, the row only the
// benchmark baseline records. Names are code, so an unknown one panics.
func Row(name string) Sweep {
	for _, s := range append(All(), converge) {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("experiments: no row %q", name))
}
