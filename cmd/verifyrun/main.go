// Command verifyrun drives the differential verification harness: it
// samples a randomized matrix of (machine config, collective options,
// graph family) trials, runs every kernel against its sequential oracle
// and selected kernels against each other, shrinks any failure to a
// minimal counterexample, and (optionally) runs the mutation self-test
// that certifies the battery detects known collective-layer faults.
//
// Usage:
//
//	verifyrun -rounds 32 -maxn 500                 # clean-matrix sweep
//	verifyrun -mutate                              # self-test only
//	verifyrun -seed 0xdead -rounds 8 -check cc/sv  # replay one check
//	verifyrun -chaos -trials 200                   # fault-injection soak
//	verifyrun -chaos -kill -trials 200             # + thread evictions and
//	                                               #   checkpoint recovery
//	verifyrun -transport wire -rounds 4            # transport conformance:
//	                                               #   the wire battery plus
//	                                               #   the dual-backend soak
//	verifyrun -transport wire -kill -trials 40     # + the kill rotation:
//	                                               #   chaos evictions on
//	                                               #   hosted wire clusters,
//	                                               #   recovered per node
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pgasgraph/internal/cliflag"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/verify"
)

// selection is the subset of the flags that picks what verifyrun runs.
type selection struct {
	check, scheme, transport string
	mutate, chaos, kill      bool
}

// mode names the one mode the flags select — wire, chaos, mutate or clean
// — or refuses, naming the pair, a flag the selected mode would silently
// ignore.
func (s selection) mode() (string, error) {
	mode, flag := "clean", ""
	switch {
	case s.transport == "wire":
		mode, flag = "wire", "-transport wire"
	case s.chaos:
		mode, flag = "chaos", "-chaos"
	case s.mutate:
		mode, flag = "mutate", "-mutate"
	}
	switch {
	case s.mutate && mode != "mutate":
		return "", fmt.Errorf("-mutate does not apply with %s", flag)
	case s.check != "" && mode != "clean":
		return "", fmt.Errorf("-check does not apply with %s", flag)
	case s.scheme != "" && mode == "mutate":
		return "", fmt.Errorf("-scheme does not apply with -mutate")
	case s.kill && mode == "mutate":
		return "", fmt.Errorf("-kill does not apply with -mutate")
	case s.kill && mode == "clean":
		return "", fmt.Errorf("-kill needs -chaos or -transport wire; alone it would run the clean matrix")
	case mode == "wire" && s.scheme != "" && s.scheme != "block":
		return "", fmt.Errorf("the wire transport is block-only; -scheme cyclic/hub requires -transport inproc")
	}
	return mode, nil
}

func main() {
	seed := flag.Uint64("seed", 1, "harness seed (replays exactly)")
	rounds := flag.Int("rounds", 16, "trials to sample")
	maxN := flag.Int64("maxn", 400, "max input size (vertices / list nodes)")
	shrink := flag.Int("shrink", 120, "predicate-run budget for shrinking each failure (0 = off)")
	check := flag.String("check", "", "comma-separated check names to run (default: all)")
	mutate := flag.Bool("mutate", false, "run the mutation self-test instead of the clean matrix")
	mutRounds := flag.Int("mutrounds", 6, "trials per fault in the mutation self-test")
	chaos := flag.Bool("chaos", false, "run the chaos soak: the matrix under deterministic fault injection")
	kill := flag.Bool("kill", false, "with -chaos: also evict threads permanently; trials run under the checkpoint/rollback recovery supervisor")
	trials := flag.Int("trials", 200, "chaos trials to run (with -chaos)")
	watchdog := flag.Duration("watchdog", 60*time.Second, "per-trial hang timeout (with -chaos)")
	quiet := flag.Bool("quiet", false, "suppress per-round progress lines")
	scheme := flag.String("scheme", "", "pin every trial to one partition scheme: block, cyclic, or hub (default: rotate)")
	list := flag.Bool("list", false, "list check names and exit")
	transport := cliflag.Transport(nil,
		"fabric backend: inproc (shared memory) or wire (unix-socket cluster conformance sweep)",
		"inproc", "wire")
	flag.Parse()

	var forceScheme *pgas.SchemeKind
	if *scheme != "" {
		var k pgas.SchemeKind
		switch *scheme {
		case "block":
			k = pgas.SchemeBlock
		case "cyclic":
			k = pgas.SchemeCyclic
		case "hub":
			k = pgas.SchemeHub
		default:
			fmt.Fprintf(os.Stderr, "verifyrun: unknown -scheme %q (block, cyclic, hub)\n", *scheme)
			os.Exit(2)
		}
		forceScheme = &k
	}

	if *list {
		for _, c := range verify.Checks() {
			tag := ""
			if c.Mutation {
				tag = "  [mutation]"
			}
			fmt.Printf("%s%s\n", c.Name, tag)
		}
		return
	}

	mode, err := selection{check: *check, scheme: *scheme, transport: *transport,
		mutate: *mutate, chaos: *chaos, kill: *kill}.mode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyrun: %v\n", err)
		os.Exit(2)
	}
	switch mode {
	case "wire":
		wcfg := verify.WireRunConfig{
			Seed:     *seed,
			Rounds:   *rounds,
			MaxN:     *maxN,
			Watchdog: *watchdog,
		}
		if *chaos {
			// Scale the dual-backend soak with -trials; without -chaos the
			// sweep keeps its small default conformance budget.
			wcfg.ChaosTrials = *trials
		}
		if *kill {
			// The kill rotation: hosted multi-node clusters with real chaos
			// evictions, recovered per-node by the supervisor; survivors must
			// agree on the rollback history. -trials scales it alongside the
			// chaos soak; standalone -kill keeps the conformance default.
			wcfg.KillTrials = *trials
		}
		if !*quiet {
			wcfg.Log = os.Stdout
		}
		rep := verify.WireRun(wcfg)
		line := fmt.Sprintf("verifyrun: wire clean=%d/%d chaos=%d recovered=%d classified=%d mismatches=%d hangs=%d",
			rep.CleanRuns-rep.CleanFailures, rep.CleanRuns, rep.ChaosRuns,
			rep.Recovered, rep.Classified, rep.Mismatches, rep.Hangs)
		if *kill {
			line += fmt.Sprintf(" kills=%d kill-recovered=%d kill-rollbacks=%d kill-classified=%d digest=%#x",
				rep.KillRuns, rep.KillRecovered, rep.KillRollbacks, rep.KillClassified, rep.KillDigest)
		}
		fmt.Println(line)
		if !rep.OK() {
			for _, f := range rep.Failures {
				fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
			}
			os.Exit(1)
		}
		return
	case "chaos":
		ccfg := verify.ChaosRunConfig{
			Seed:        *seed,
			Trials:      *trials,
			MaxN:        *maxN,
			Timeout:     *watchdog,
			Kill:        *kill,
			ForceScheme: forceScheme,
		}
		if !*quiet {
			ccfg.Log = os.Stdout
		}
		rep := verify.ChaosRun(ccfg)
		line := fmt.Sprintf("verifyrun: chaos trials=%d recovered=%d classified=%d wrong=%d hangs=%d faults=%d retries=%d",
			len(rep.Trials), rep.Recovered, rep.Classified, rep.Wrong, rep.Hangs,
			rep.Stats.Faults(), rep.Stats.Retries)
		if *kill {
			line += fmt.Sprintf(" kills=%d recovered-by-rollback=%d rollbacks=%d",
				rep.Stats.Kills, rep.RecoveredByRollback, rep.Rollbacks)
		}
		fmt.Printf("%s digest=%#x\n", line, rep.Digest())
		if !rep.OK() {
			for i := range rep.Trials {
				tr := &rep.Trials[i]
				if tr.Outcome == verify.ChaosWrongAnswer || tr.Outcome == verify.ChaosHang {
					fmt.Fprintf(os.Stderr, "FAIL chaos trial %d (%s): %s: %v\n  trial: %s\n",
						tr.Round, tr.Check, tr.Outcome, tr.Err, tr.Trial)
				}
			}
			os.Exit(1)
		}
		return
	case "mutate":
		ok := true
		for _, res := range verify.MutationSelfTest(*seed, *mutRounds) {
			fmt.Println(res)
			if !res.Detected {
				ok = false
			}
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "verifyrun: FAULT ESCAPED — the battery failed its self-test")
			os.Exit(1)
		}
		fmt.Println("verifyrun: all seeded faults detected")
		return
	}

	cfg := verify.Config{
		Seed:          *seed,
		Rounds:        *rounds,
		MaxN:          *maxN,
		MaxShrinkRuns: *shrink,
		ForceScheme:   forceScheme,
	}
	if !*quiet {
		cfg.Log = os.Stdout
	}
	if *check != "" {
		known := map[string]bool{}
		for _, c := range verify.Checks() {
			known[c.Name] = true
		}
		cfg.Checks = map[string]bool{}
		for _, name := range strings.Split(*check, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(os.Stderr, "verifyrun: unknown check %q (see -list)\n", name)
				os.Exit(2)
			}
			cfg.Checks[name] = true
		}
	}
	rep := verify.Run(cfg)
	fmt.Printf("verifyrun: rounds=%d checks=%d skipped=%d failures=%d\n",
		rep.Rounds, rep.ChecksRun, rep.Skipped, len(rep.Failures))
	if !rep.OK() {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		os.Exit(1)
	}
}
