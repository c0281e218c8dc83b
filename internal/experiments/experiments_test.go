package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/report"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.01 || c.Nodes != 16 || c.Seed != 42 || c.CacheScale != 3.5 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Base == nil {
		t.Fatal("base machine not set")
	}
}

func TestConfigN(t *testing.T) {
	c := Config{Scale: 0.01}.withDefaults()
	if c.n(100_000_000) != 1_000_000 {
		t.Fatalf("N scaling wrong: %d", c.n(100_000_000))
	}
	if c.n(1000) != 256 {
		t.Fatalf("floor not applied: %d", c.n(1000))
	}
}

func TestConfigMachineScalesCache(t *testing.T) {
	c := Config{Scale: 0.01}.withDefaults()
	p := c.point("geometry")
	p.Nodes, p.Threads = 4, 2
	m := c.machine(&p)
	if m.Nodes != 4 || m.ThreadsPerNode != 2 {
		t.Fatal("geometry not applied")
	}
	full := machine.PaperCluster()
	if m.CacheBytes >= full.CacheBytes {
		t.Fatal("cache not scaled down")
	}
	if m.CacheBytes < 4096 {
		t.Fatal("cache floor not applied")
	}
}

// The golden test renders every row at goldenScale as `pgasbench
// -markdown` does and compares it with goldenFile, the output of
// `pgasbench -scale 0.001 -markdown all`. Every cell is pinned: the
// simulated numbers are exact, naive kernels' included.
const (
	goldenScale = 0.001
	goldenFile  = "testdata/rows_0.001.md"
)

var update = flag.Bool("update", false, "rewrite "+goldenFile+" from this build")

// goldenVerdicts pins each row's shape verdict at goldenScale: "" for a
// row whose claims hold at any scale, else the claim that fails first
// there. The failing rows are validated at -scale 0.01 by `pgasbench
// -check all` (EXPERIMENTS.md lists the margins and the known deviations).
var goldenVerdicts = map[string]string{
	"fig2": "", "fig3": "", "fig4": "", "bfs": "", "outofcore": "", "sssp": "", "hybrid": "", "converge": "",
	"fig5":        "base over +compact total",
	"fig6":        "base over +compact total",
	"fig7":        "fewer threads/node over 8",
	"fig8":        "fewer threads/node over 8",
	"fig9":        "fewer threads/node over 8",
	"fig10":       "fewer threads/node over 8",
	"listrank":    "CGM at 2 over 16 nodes",
	"ccmerge":     "merge over coalesced",
	"scaling":     "strong speedup at 16 nodes",
	"sensitivity": "fewer threads/node over 8",
}

// results memoizes each row's run at goldenScale, so the per-row entry
// points and TestRowsGolden share one run of each row.
var results = map[string]*Result{}

func result(t *testing.T, name string) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("rows run the real kernels")
	}
	if r, ok := results[name]; ok {
		return r
	}
	results[name] = Row(name).Run(Config{Scale: goldenScale})
	return results[name]
}

func render(t *testing.T, name string) string {
	var b strings.Builder
	if err := result(t, name).Table().Markdown(&b); err != nil {
		t.Fatal(err)
	}
	return b.String() + "\n"
}

// checkGolden holds one row to its section of the golden file.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	// A row's section runs from its "### " title to the next one.
	sections := strings.Split(string(data), "\n### ")
	if len(sections) != len(All()) {
		t.Fatalf("%s has %d sections, want one per row (%d)", goldenFile, len(sections), len(All()))
	}
	i := slices.IndexFunc(All(), func(s Sweep) bool { return s.Name == name })
	want := sections[i]
	if i > 0 {
		want = "### " + want
	}
	if i < len(sections)-1 {
		want += "\n"
	}
	got := render(t, name)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for j := range min(len(gl), len(wl)) {
			if gl[j] != wl[j] {
				t.Fatalf("%s differs from %s at its line %d:\n got %s\nwant %s", name, goldenFile, j+1, gl[j], wl[j])
			}
		}
		t.Fatalf("%s: %d lines, %s has %d", name, len(gl), goldenFile, len(wl))
	}
	checkVerdict(t, name)
}

// checkVerdict holds one row's shape verdict to goldenVerdicts: a finite
// margin and its claim, failing (negative, or zero on a strict claim's
// tie) exactly on the pinned claim.
func checkVerdict(t *testing.T, name string) {
	t.Helper()
	margin, claim, err := result(t, name).CheckShape()
	want, ok := goldenVerdicts[name]
	switch {
	case !ok:
		t.Errorf("%s: no pinned verdict", name)
	case math.IsInf(margin, 0) || math.IsNaN(margin) || claim == "":
		t.Errorf("%s: margin %v on claim %q, want a finite margin and its claim", name, margin, claim)
	case want == "" && err != nil:
		t.Errorf("%s: shape should hold at any scale: %v", name, err)
	case want != "" && (err == nil || claim != want || !strings.Contains(err.Error(), want) || margin > 0):
		t.Errorf("%s: verdict %v, margin %+.4f on %q; want %q to fail first", name, err, margin, claim, want)
	}
}

// TestRowsGolden is the golden test over every row of All(), and the
// verdict of converge, the baseline's row, which prints no table; -update
// rewrites the file from this build instead (review the diff: no cell may
// move unless a change means to move numbers).
func TestRowsGolden(t *testing.T) {
	if *update {
		var b strings.Builder
		for _, row := range All() {
			b.WriteString(render(t, row.Name))
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, row := range All() {
		checkGolden(t, row.Name)
	}
	checkVerdict(t, "converge")
}

// One row's part of the golden test each: `go test -run TestFig07Smoke`
// runs Figure 7 alone.
func TestFig02Smoke(t *testing.T)            { checkGolden(t, "fig2") }
func TestFig03Smoke(t *testing.T)            { checkGolden(t, "fig3") }
func TestFig04Smoke(t *testing.T)            { checkGolden(t, "fig4") }
func TestFig05Smoke(t *testing.T)            { checkGolden(t, "fig5") }
func TestFig06HybridComparable(t *testing.T) { checkGolden(t, "fig6") }
func TestFig07Smoke(t *testing.T)            { checkGolden(t, "fig7") }
func TestFig08And10Smoke(t *testing.T)       { checkGolden(t, "fig8"); checkGolden(t, "fig10") }
func TestFig09Smoke(t *testing.T)            { checkGolden(t, "fig9") }
func TestListRankSmoke(t *testing.T)         { checkGolden(t, "listrank") }
func TestBFSExperimentSmoke(t *testing.T)    { checkGolden(t, "bfs") }
func TestCCMergeSmoke(t *testing.T)          { checkGolden(t, "ccmerge") }
func TestOutOfCoreSmoke(t *testing.T)        { checkGolden(t, "outofcore") }
func TestScalingSmoke(t *testing.T)          { checkGolden(t, "scaling") }
func TestSSSPExperimentSmoke(t *testing.T)   { checkGolden(t, "sssp") }

// A shape failure names the row it belongs to, not the code it shares:
// Figure 6 runs Figure 5's ablation.
func TestShapeFailureNamesRow(t *testing.T) {
	r := *result(t, "fig6")
	r.Measures = slices.Clone(r.Measures)
	r.Measures[1] = slices.Clone(r.Measures[1])
	r.Measures[1][0].NS = r.Measures[0][0].NS * 1.05 // +compact slower than base
	margin, claim, err := r.CheckShape()
	const want = "fig6: base over +compact total = "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("failing fig6 check: %v, want an error starting %q", err, want)
	}
	if claim != "base over +compact total" || margin >= 0 {
		t.Fatalf("failing fig6 check: margin %+.4f on %q, want a negative margin on the failing claim", margin, claim)
	}

	// hybrid labels its points CC, MST, CC, MST: a failing point is named
	// with its edge count too.
	r = *result(t, "hybrid")
	r.Measures = slices.Clone(r.Measures)
	r.Measures[2] = slices.Clone(r.Measures[2])
	r.Measures[2][0].NS = r.Cell(2, "smp").NS * 1.05 // the larger CC point's hybrid run slower than SMP
	_, _, err = r.CheckShape()
	named := fmt.Sprintf("hybrid: CC (m=%s): SMP over hybrid = ", report.Count(r.Measures[2][0].M))
	if err == nil || !strings.HasPrefix(err.Error(), named) {
		t.Fatalf("failing hybrid check: %v, want an error starting %q", err, named)
	}
}

// A strict claim holds only above its bound: at the bound it fails with
// slack 0, and a non-strict one holds there.
func TestClaimAtBound(t *testing.T) {
	r := &Result{sweep: Sweep{Name: "tie"}, Points: []Point{{Label: "p"}}}
	at := func(strict bool) (float64, string, error) {
		r.sweep.claims = []claim{{name: "two", bound: 2, strict: strict, got: func(*view) float64 { return 2 }}}
		return r.CheckShape()
	}
	if margin, claim, err := at(true); err == nil || err.Error() != "tie: two = 2, want > 2" || margin != 0 || claim != "two" {
		t.Errorf("strict claim at its bound: margin %v on %q, err %v; want slack 0 and %q", margin, claim, err, "tie: two = 2, want > 2")
	}
	if margin, claim, err := at(false); err != nil || margin != 0 || claim != "two" {
		t.Errorf("non-strict claim at its bound: margin %v on %q, err %v; want it to hold with slack 0", margin, claim, err)
	}
}
