// Command benchmark is the repository's benchmark: a single-process,
// closed-loop load generator (one client; the next op is sent when the
// previous one returns) that drives the program only through its public
// entry points, checks every answer against oracles it owns, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	go run ./benchmark --workload cc-inproc --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --workload cc-wire --seed 1 --seconds 12 --trace 1
//	go run ./benchmark --aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// buildDir is where a run keeps its sockets: inside the checkout, under
// the directory the driver reserves for build output. The path is
// relative so that socket names stay under the 108-byte sun_path limit
// wherever the checkout lives.
const buildDir = ".bench_build"

// outDir receives span files and A/A tables (ignored by benchmark/.gitignore).
const outDir = "benchmark/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for the generated inputs and op sequence")
	seconds := flag.Int("seconds", runSeconds, "nominal length of the timed op sequence; scales the fixed op counts")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	aa := flag.Int("aa", 0, "A/A self-check: run every workload this many times on this binary and compare spreads with bounds")
	rawPath := flag.String("raw", "", "with --trace 0: also write the run's raw series (op times, yardstick readings) to this file as JSON")
	flag.Parse()

	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be in [1, 60]")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *aa > 0 {
		return runAA(*aa, *seed, *seconds, dir)
	}

	spec, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown --workload %q (known: %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	sh := spec.shape.scaled(*seconds)

	var res *result
	switch *trace {
	case 0:
		r, err := runUntraced(spec, sh, *seed, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printUntraced(r)
		reportFailures(r.failures)
		res = r.result()
		if *rawPath != "" {
			if err := writeRaw(*rawPath, r.raw(*seed)); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	case 1:
		spanFile := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", spec.name, *seed))
		t, err := runTraced(spec, sh, *seed, dir, fullProbes, spanFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printTraced(t)
		reportFailures(t.failures)
		res = t.result()
	default:
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// reportFailures says on standard error what the first failed ops got
// wrong.
func reportFailures(failures []string) {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchmark: failed %s\n", f)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return names
}

func (r *runResult) result() *result {
	out := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
	}
	return out
}

// printUntraced lists every end-to-end metric by name with its unit, raw
// wall numbers beside the normalised ones, and the sample count beside
// the percentile.
func printUntraced(r *runResult) {
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", r.workload, r.attempted, r.failed)
	fmt.Printf("  yardsticks       cpu %.4f ms, sock %.4f ms (run means); level %.4f x reference\n", r.yardCPUMS, r.yardSockMS, r.level)
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("raw %.4f s", r.rawSetupS)
		case "op_p50_ms":
			note = fmt.Sprintf("raw %.4f ms, %d samples", r.rawOpP50MS, r.samples)
		case "ops_per_s":
			note = fmt.Sprintf("raw %.4f 1/s", r.rawOpsPerS)
		}
		fmt.Printf("  %-16s %12.4f %-4s %s\n", m.name, r.metrics[m.name], m.unit, note)
	}
}

func printTraced(t *tracedResult) {
	fmt.Printf("workload %s (traced): %d ops attempted, %d failed, %d spans -> %s\n",
		t.workload, t.attempted, t.failed, t.spans, t.spanFile)
	for _, l := range perLayer {
		note := ""
		switch l.name {
		case "load.raw_op_p50_ms", "load.op_p90_ms", "load.op_p99_ms":
			note = fmt.Sprintf("%d samples", t.samples)
		}
		fmt.Printf("  %-40s %16.4f %-6s %s\n", l.name, t.metrics[l.name], l.unit, note)
	}
}

func (t *tracedResult) result() *result {
	out := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for name, v := range t.metrics {
		out.Metrics[name] = metricValue{Value: v, Unit: perLayerUnits[name]}
	}
	return out
}
