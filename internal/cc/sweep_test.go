package cc

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/graph"
	"pgasgraph/internal/mst"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
)

var sweepWrite = flag.String("sweep-write", "",
	"TestRequestPathSweep: write every row to this file instead of comparing (regenerates testdata/request_path_sweep.txt)")

const sweepPins = "testdata/request_path_sweep.txt"

// sweepRow is what one sweep run is pinned on: the round count and the
// three model outputs a request-path change can move.
func sweepRow(iters int, run *pgas.Result) string {
	return fmt.Sprintf("%d %s %d %d", iters,
		strconv.FormatFloat(run.SimNS, 'g', -1, 64), run.Messages, run.Bytes)
}

// TestRequestPathSweep is the acceptance check for changes to the graft
// rounds' request path (the live edge list, its plan, its compaction):
// every kernel that gathers endpoint labels x four inputs x three
// collective configurations x Compact on/off x three geometries, 648 runs.
// Each run's answer is checked against the sequential oracle, and its
// round count, SimNS, Messages and Bytes against the pinned file. A change
// that means to move a number regenerates the file with -sweep-write and
// explains the diff; one that does not must leave it alone.
func TestRequestPathSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("648 kernel runs")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.Random(4096, 16384, 1)},
		// m = n: many components, most edges settle in the first rounds.
		{"sparse", graph.Random(1024, 1024, 7134611160154358618)},
		{"rmat", graph.RMAT(11, 1<<13, 0.45, 0.25, 0.15, 0.15, 1)},
		{"hybrid", graph.Hybrid(1<<11, 1<<13, 1)},
	}
	cols := []struct {
		name string
		col  func() *collective.Options
	}{
		{"optimized", func() *collective.Options { return collective.Optimized(2) }},
		{"base", collective.Base},
		{"quicksort", func() *collective.Options { o := collective.Base(); o.Sort = collective.QuickSort; return o }},
	}
	geometries := [][2]int{{4, 2}, {3, 1}, {1, 4}}

	got := map[string]string{}
	for _, in := range graphs {
		want := seq.CC(in.g)
		weighted := graph.WithRandomWeights(in.g, 2)
		kruskal := seq.Kruskal(weighted)
		// Incremental resumes from the labeling of the first half of the
		// edges and inserts the second half as one batch.
		half := in.g.M() / 2
		base := &graph.Graph{N: in.g.N, U: in.g.U[:half], V: in.g.V[:half]}
		var eu, ev []int64
		for e := half; e < in.g.M(); e++ {
			eu, ev = append(eu, int64(in.g.U[e])), append(ev, int64(in.g.V[e]))
		}

		labelKernels := append(kernels()[1:], // not naive: it gathers nothing
			kernel{"spanning", func(rt *pgas.Runtime, g *graph.Graph, opts *Options) *Result {
				sf := SpanningTree(rt, collective.NewComm(rt), g, opts)
				checkSpanningForest(t, g, sf)
				return sf.CC
			}},
			kernel{"incremental", func(rt *pgas.Runtime, _ *graph.Graph, opts *Options) *Result {
				comm := collective.NewComm(rt)
				return Incremental(rt, comm, residentLabels(t, rt, comm, base, opts), eu, ev, opts)
			}})

		for _, c := range cols {
			for _, compact := range []bool{false, true} {
				for _, geo := range geometries {
					key := func(kernel string) string {
						mode := "static"
						if compact {
							mode = "compact"
						}
						return fmt.Sprintf("%s/%s/%s/%s/%dx%d", kernel, in.name, c.name, mode, geo[0], geo[1])
					}
					for _, k := range labelKernels {
						res := k.run(newRuntime(t, geo[0], geo[1]), in.g, &Options{Col: c.col(), Compact: compact})
						if !slices.Equal(res.Labels, want) {
							t.Errorf("%s: labels differ from seq.CC", key(k.name))
						}
						got[key(k.name)] = sweepRow(res.Iterations, res.Run)
					}
					rt := newRuntime(t, geo[0], geo[1])
					forest := mst.Coalesced(rt, collective.NewComm(rt), weighted, &mst.Options{Col: c.col(), Compact: compact})
					if forest.Weight != kruskal.Weight {
						t.Errorf("%s: forest weight %d, Kruskal's %d", key("mst"), forest.Weight, kruskal.Weight)
					}
					if err := seq.CheckForest(weighted, &seq.MSF{Edges: forest.Edges, Weight: forest.Weight}); err != nil {
						t.Errorf("%s: %v", key("mst"), err)
					}
					got[key("mst")] = sweepRow(forest.Iterations, forest.Run)
				}
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *sweepWrite != "" {
		var b strings.Builder
		b.WriteString("# kernel/input/collectives/list/nodes x threads: rounds SimNS Messages Bytes\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s: %s\n", k, got[k])
		}
		if err := os.WriteFile(*sweepWrite, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	pins, err := os.ReadFile(sweepPins)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for _, line := range strings.Split(string(pins), "\n") {
		k, row, ok := strings.Cut(line, ": ")
		if !ok || strings.HasPrefix(k, "#") {
			continue
		}
		pinned++
		if got[k] != row {
			t.Errorf("%s: got %q, pinned %q", k, got[k], row)
		}
	}
	if pinned != len(got) {
		t.Errorf("%d rows pinned, %d runs made", pinned, len(got))
	}
}
