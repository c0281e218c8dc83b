// Command pgasbench regenerates the paper's evaluation figures (2-10) and
// this repository's extension experiments at a configurable scale,
// printing each as a text table (optionally CSV or markdown). With -json
// it instead runs the collective micro-benchmarks and figure kernels and
// emits a machine-readable benchmark report (the BENCH_collectives.json
// baseline format), optionally comparing against a committed baseline.
//
// Usage:
//
//	pgasbench [flags] <figure>... | all
//	pgasbench -json [-out f] [-baseline f [-tol x]]
//
// The figure list is printed by -h (it is generated from the experiment
// registry). Unknown figure names exit with status 2 before anything
// runs.
//
// Flags:
//
//	-scale f      input-size fraction of the paper's graphs (default 0.01)
//	-nodes n      cluster nodes (default 16)
//	-seed s       generator seed (default 42)
//	-csv          emit CSV instead of aligned tables
//	-markdown     emit GitHub-flavored markdown tables
//	-check        run the shape assertions and report pass/fail
//	-json         emit the machine-readable benchmark report
//	-out f        write -json output to f instead of stdout
//	-baseline f   compare the -json run against baseline f
//	-tol x        wall-clock tolerance factor for -baseline (default 3)
//	-calls n      collective calls per thread in -json mode (default 256)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pgasgraph/internal/bench"
	"pgasgraph/internal/cliflag"
	"pgasgraph/internal/experiments"
	"pgasgraph/internal/report"
)

// figure couples a runner with its printable result.
type figure struct {
	name string
	run  func(experiments.Config) result
}

// result is what every experiment yields.
type result interface {
	Table() *report.Table
	CheckShape() error
}

func figures() []figure {
	return []figure{
		{"fig2", func(c experiments.Config) result { return experiments.RunFig02(c) }},
		{"fig3", func(c experiments.Config) result { return experiments.RunFig03(c) }},
		{"fig4", func(c experiments.Config) result { return experiments.RunFig04(c) }},
		{"fig5", func(c experiments.Config) result { return experiments.RunFig05(c) }},
		{"fig6", func(c experiments.Config) result { return experiments.RunFig06(c) }},
		{"fig7", func(c experiments.Config) result { return experiments.RunFig07(c) }},
		{"fig8", func(c experiments.Config) result { return experiments.RunFig08(c) }},
		{"fig9", func(c experiments.Config) result { return experiments.RunFig09(c) }},
		{"fig10", func(c experiments.Config) result { return experiments.RunFig10(c) }},
		{"listrank", func(c experiments.Config) result { return experiments.RunListRank(c) }},
		{"bfs", func(c experiments.Config) result { return experiments.RunBFS(c) }},
		{"ccmerge", func(c experiments.Config) result { return experiments.RunCCMerge(c) }},
		{"outofcore", func(c experiments.Config) result { return experiments.RunOutOfCore(c) }},
		{"scaling", func(c experiments.Config) result { return experiments.RunScaling(c) }},
		{"sensitivity", func(c experiments.Config) result { return experiments.RunSensitivity(c) }},
		{"sssp", func(c experiments.Config) result { return experiments.RunSSSP(c) }},
		{"hybrid", func(c experiments.Config) result { return experiments.RunHybrid(c) }},
	}
}

// usageLine builds the figure list from the registry, so the usage text
// cannot drift from the figures the binary actually knows.
func usageLine() string {
	names := make([]string, 0, len(figures())+1)
	for _, f := range figures() {
		names = append(names, f.name)
	}
	names = append(names, "all")
	return "usage: pgasbench [flags] " + strings.Join(names, "|")
}

func main() {
	scale := flag.Float64("scale", 0.01, "input-size fraction of the paper's graphs")
	nodes := flag.Int("nodes", 16, "cluster nodes")
	seed := flag.Uint64("seed", 42, "generator seed")
	csv := flag.Bool("csv", false, "emit CSV")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	check := flag.Bool("check", false, "run shape assertions")
	jsonMode := flag.Bool("json", false, "emit the machine-readable benchmark report")
	out := flag.String("out", "", "write -json output to this file instead of stdout")
	baseline := flag.String("baseline", "", "compare the -json run against this baseline file")
	tol := flag.Float64("tol", 3, "wall-clock tolerance factor for -baseline")
	calls := flag.Int("calls", 256, "collective calls per thread in -json mode")
	transport := cliflag.Transport(nil,
		"fabric backend: inproc, or wire for the in-process vs unix-socket comparison table",
		"inproc", "wire")
	wireRounds := flag.Int("wirerounds", 2, "sampled graphs per kernel with -transport wire")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usageLine())
		fmt.Fprintln(os.Stderr, "       pgasbench -json [-out f] [-baseline f [-tol x]]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonMode {
		os.Exit(runJSON(*out, *baseline, *tol, *calls, *seed))
	}

	// cliflag validated -transport at parse time; only wire needs a branch.
	if *transport == "wire" {
		emit := func(t *report.Table) error {
			switch {
			case *csv:
				return t.CSV(os.Stdout)
			case *markdown:
				return t.Markdown(os.Stdout)
			default:
				return t.Fprint(os.Stdout)
			}
		}
		os.Exit(runWireTable(*seed, *nodes, *wireRounds, emit))
	}

	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Resolve every name before running anything: a typo in the last
	// argument must not cost the full run of the first.
	known := map[string]bool{}
	for _, f := range figures() {
		known[f.name] = true
	}
	want := map[string]bool{}
	for _, arg := range flag.Args() {
		if strings.EqualFold(arg, "all") {
			for _, f := range figures() {
				want[f.name] = true
			}
			continue
		}
		name := strings.ToLower(arg)
		if !known[name] {
			fmt.Fprintf(os.Stderr, "pgasbench: unknown figure %q\n%s\n", arg, usageLine())
			os.Exit(2)
		}
		want[name] = true
	}

	cfg := experiments.Config{Scale: *scale, Nodes: *nodes, Seed: *seed}
	failures := 0
	for _, f := range figures() {
		if !want[f.name] {
			continue
		}
		res := f.run(cfg)
		t := res.Table()
		var err error
		switch {
		case *csv:
			err = t.CSV(os.Stdout)
		case *markdown:
			err = t.Markdown(os.Stdout)
		default:
			err = t.Fprint(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgasbench: writing %s: %v\n", f.name, err)
			os.Exit(1)
		}
		if *check {
			if err := res.CheckShape(); err != nil {
				fmt.Printf("SHAPE FAIL: %v\n", err)
				failures++
			} else {
				fmt.Printf("shape ok: %s\n", f.name)
			}
		}
		fmt.Println()
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runJSON runs the benchmark suite and returns the process exit code.
func runJSON(out, baseline string, tol float64, calls int, seed uint64) int {
	cfg := bench.Defaults()
	cfg.Seed = seed
	if calls > 0 {
		cfg.Calls = calls
	}
	rep, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgasbench: %v\n", err)
		return 1
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgasbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "pgasbench: writing report: %v\n", err)
		return 1
	}

	if baseline == "" {
		return 0
	}
	base, err := report.ReadBenchReport(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgasbench: %v\n", err)
		return 1
	}
	// SimRacy is the per-racy-iteration budget for async records (all of
	// which carry RacyOps).
	regressions := report.CompareBench(base, rep, report.Tolerances{
		Wall: tol, Sim: 1.05, SimRacy: 1.2, AllocSlack: 2,
	})
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
	}
	if len(regressions) > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark check ok: %d records within tolerance of %s\n", len(base.Records), baseline)
	return 0
}
