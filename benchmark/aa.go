package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The A/A self-check: the whole workload set, n times, on this one
// binary, order reversed every round, a new seed every round, every run
// in its own process (as the acceptance check runs it). For every
// workload × end-to-end metric it prints the spread between the first and
// third quartile as a share of the median beside the metric's bound — raw
// beside normalised for the wall metrics — and compares the medians of
// the two halves of the rounds. It exits non-zero when a bound is broken.

// rawRun is one untraced run's raw series: what --raw writes and the A/A
// results file collects, so another statistic can be tried on the same
// runs.
type rawRun struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	RawSetupS  float64            `json:"raw_setup_s"`
	RawOpP50MS float64            `json:"raw_op_p50_ms"`
	RawOpsPerS float64            `json:"raw_ops_per_s"`
	Level      float64            `json:"level"`
	OpMS       []float64          `json:"op_ms"`
	SetupS     []float64          `json:"setup_s"`
	YardCPUMS  []float64          `json:"yard_cpu_ms"`
	YardSockMS []float64          `json:"yard_sock_ms"`
}

func (r *runResult) raw(seed uint64) *rawRun {
	return &rawRun{
		Workload: r.workload, Seed: seed, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		RawSetupS: r.rawSetupS, RawOpP50MS: r.rawOpP50MS, RawOpsPerS: r.rawOpsPerS, Level: r.level,
		OpMS: r.opMS, SetupS: r.setupS, YardCPUMS: r.cpuMS, YardSockMS: r.sockMS,
	}
}

func writeRaw(path string, r *rawRun) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runChild runs one untraced run of this binary in its own process and
// returns its raw series.
func runChild(workload string, seed uint64, seconds int, dir string) (*rawRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rawPath := filepath.Join(dir, "aa-run.json")
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--raw", rawPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	data, err := os.ReadFile(rawPath)
	if err != nil {
		return nil, err
	}
	var r rawRun
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, os.Remove(rawPath)
}

func runAA(rounds int, seed uint64, seconds int, dir string) int {
	var runs []*rawRun
	start := time.Now()
	for round := 0; round < rounds; round++ {
		order := workloadNames()
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			r, err := runChild(name, seed+uint64(round), seconds, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: a/a round %d: %v\n", round+1, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "a/a round %d/%d %-12s op_p50 %.4f ms (raw %.4f), level %.3f, %.0fs elapsed\n",
				round+1, rounds, name, r.Metrics["op_p50_ms"], r.RawOpP50MS, r.Level, time.Since(start).Seconds())
			runs = append(runs, r)
		}
	}

	table, broken := aaTable(runs, rounds)
	fmt.Print(table)
	stem := filepath.Join(outDir, "aa-"+time.Now().UTC().Format("20060102T150405Z"))
	rawJSON, err := json.Marshal(runs)
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(stem+".md", []byte(table), 0o644)
	}
	if err == nil {
		err = os.WriteFile(stem+".json", rawJSON, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: a/a: writing results: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "a/a table and raw series written to %s.{md,json}\n", stem)
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: a/a: %d bound(s) broken\n", broken)
		return 1
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaTable renders the markdown table and counts broken bounds: a spread
// above its bound (setup_s excepted, as in the acceptance check) or a
// second-half median worse than the first-half median by more than it.
func aaTable(runs []*rawRun, rounds int) (string, int) {
	var b strings.Builder
	broken := 0
	fmt.Fprintf(&b, "A/A self-check, %d rounds, spread = (Q3 - Q1) / median, halves = second-half median vs first-half median (+ is worse)\n\n", rounds)
	fmt.Fprintln(&b, "| workload | metric | median | spread | raw spread | bound | halves | verdict |")
	fmt.Fprintln(&b, "|---|---|---:|---:|---:|---:|---:|---|")
	for _, name := range workloadNames() {
		for _, m := range endToEnd {
			var norm, raw []float64
			for _, r := range runs {
				if r.Workload != name {
					continue
				}
				norm = append(norm, r.Metrics[m.name])
				switch m.name {
				case "setup_s":
					raw = append(raw, r.RawSetupS)
				case "op_p50_ms":
					raw = append(raw, r.RawOpP50MS)
				case "ops_per_s":
					raw = append(raw, r.RawOpsPerS)
				}
			}
			spread := iqrSpread(norm)
			rawSpread := "-"
			if raw != nil {
				rawSpread = fmt.Sprintf("%.2f%%", 100*iqrSpread(raw))
			}
			half := len(norm) / 2
			drift := worsening(median(norm[:half]), median(norm[half:]), m.better)
			verdict := "ok"
			if (m.name != "setup_s" && spread > m.bound) || drift > m.bound {
				verdict = "BROKEN"
				broken++
			}
			fmt.Fprintf(&b, "| %s | %s | %.4f %s | %.2f%% | %s | %.1f%% | %+.2f%% | %s |\n",
				name, m.name, median(norm), m.unit, 100*spread, rawSpread, 100*m.bound, 100*drift, verdict)
		}
	}
	return b.String(), broken
}
