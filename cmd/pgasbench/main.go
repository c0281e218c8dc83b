// Command pgasbench regenerates the paper's evaluation figures (2-10) and
// this repository's extension experiments at a configurable scale,
// printing each as a text table (optionally CSV or markdown). With -json
// it instead runs the collective micro-benchmarks and the baseline's
// experiment rows and emits a machine-readable benchmark report (the
// BENCH_collectives.json baseline format), optionally comparing against a
// committed baseline.
//
// Usage:
//
//	pgasbench -scale 0.01 -check all            # every row, its shape verdict and margin
//	pgasbench -markdown fig7 fig8               # EXPERIMENTS.md's format
//	pgasbench -json -baseline BENCH_collectives.json -tol 3   # CI's check
//	pgasbench -json -out BENCH_collectives.json # regenerate the baseline
//
// The figure list is printed by -h (it is generated from the experiment
// rows). Unknown figure names exit with status 2 before anything runs, as
// do figure names, -scale, -nodes, -csv, -markdown and -check with -json,
// which always runs the baseline's configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pgasgraph/internal/bench"
	"pgasgraph/internal/experiments"
	"pgasgraph/internal/report"
)

// usageLine builds the figure list from the registry, so the usage text
// cannot drift from the figures the binary actually knows.
func usageLine() string {
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
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
	check := flag.Bool("check", false, "evaluate each row's shape claims and print its margin")
	jsonMode := flag.Bool("json", false, "emit the machine-readable benchmark report")
	out := flag.String("out", "", "write -json output to this file instead of stdout")
	baseline := flag.String("baseline", "", "compare the -json run against this baseline file")
	tol := flag.Float64("tol", 3, "wall-clock tolerance factor for -baseline")
	calls := flag.Int("calls", 256, "collective calls per thread in -json mode")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usageLine())
		fmt.Fprintln(os.Stderr, "       pgasbench -json [-out f] [-baseline f [-tol x]]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonMode {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if err := refusal(set, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "pgasbench: %v\n", err)
			os.Exit(2)
		}
		os.Exit(runJSON(*out, *baseline, *tol, *calls, *seed))
	}

	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// Resolve every name before running anything: a typo in the last
	// argument must not cost the full run of the first.
	all := experiments.All()
	known := map[string]bool{}
	for _, e := range all {
		known[e.Name] = true
	}
	want := map[string]bool{}
	for _, arg := range flag.Args() {
		if strings.EqualFold(arg, "all") {
			want = known
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
	for _, f := range all {
		if !want[f.Name] {
			continue
		}
		res := f.Run(cfg)
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
			fmt.Fprintf(os.Stderr, "pgasbench: writing %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		if *check {
			if margin, claim, err := res.CheckShape(); err != nil {
				fmt.Printf("SHAPE FAIL: %v (margin %+.2f%%)\n", err, 100*margin)
				failures++
			} else {
				fmt.Printf("shape ok: %s (margin %+.2f%%: %s)\n", f.Name, 100*margin, claim)
			}
		}
		fmt.Println()
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// refusal names a flag or argument -json would silently ignore: it runs
// the baseline's fixed configuration and takes no figure names.
func refusal(set map[string]bool, args []string) error {
	for _, f := range []string{"scale", "nodes", "csv", "markdown", "check"} {
		if set[f] {
			return fmt.Errorf("-%s does not apply with -json, which runs the baseline configuration", f)
		}
	}
	if len(args) > 0 {
		return fmt.Errorf("-json takes no figure names, got %q", args)
	}
	return nil
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
	regressions := report.CompareBench(base, rep, tol)
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
	}
	if len(regressions) > 0 {
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark check ok: %d records within tolerance of %s\n", len(base.Records), baseline)
	return 0
}
