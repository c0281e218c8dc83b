// Command verifyrun drives the differential verification harness: it
// samples a randomized matrix of (machine config, collective options,
// graph family) trials, runs every kernel against its sequential oracle
// and selected kernels against each other, shrinks any failure to a
// minimal counterexample, and (optionally) runs the mutation self-test
// that certifies the battery detects known collective-layer faults.
// Each mode runs a list of rows of the soak table (verify.Soak) and
// prints one summary line per row.
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
//
// A flag the selected mode does not read is refused (exit 2), naming it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pgasgraph/internal/cliflag"
	"pgasgraph/internal/verify"
)

// options are verifyrun's flags, on their own FlagSet so the mode selection
// can see which were set.
type options struct {
	fs                               *flag.FlagSet
	seed                             *uint64
	rounds, shrink, mutRounds        *int
	trials                           *int
	maxN                             *int64
	check, transport                 *string
	mutate, chaos, kill, quiet, list *bool
	watchdog                         *time.Duration
}

func newOptions(handling flag.ErrorHandling) *options {
	fs := flag.NewFlagSet("verifyrun", handling)
	return &options{
		fs:        fs,
		seed:      fs.Uint64("seed", 1, "harness seed (replays exactly)"),
		rounds:    fs.Int("rounds", 16, "trials to sample (clean matrix, wire conformance)"),
		maxN:      fs.Int64("maxn", 400, "max input size (vertices / list nodes)"),
		shrink:    fs.Int("shrink", 120, "predicate-run budget for shrinking each failure (0 = off)"),
		check:     fs.String("check", "", "comma-separated check names to run (default: all)"),
		mutate:    fs.Bool("mutate", false, "run the mutation self-test instead of the clean matrix"),
		mutRounds: fs.Int("mutrounds", 6, "trials per fault in the mutation self-test"),
		chaos:     fs.Bool("chaos", false, "run the chaos soak: the matrix under deterministic fault injection"),
		kill:      fs.Bool("kill", false, "with -chaos or -transport wire: also evict threads permanently; trials run under the checkpoint/rollback recovery supervisor"),
		trials:    fs.Int("trials", 200, "chaos and kill trials to run (with -chaos, or -transport wire with -chaos or -kill)"),
		watchdog:  fs.Duration("watchdog", 60*time.Second, "per-run hang timeout (with -chaos or -transport wire)"),
		quiet:     fs.Bool("quiet", false, "suppress per-run progress lines"),
		list:      fs.Bool("list", false, "list check names and exit"),
		transport: cliflag.Transport(fs,
			"fabric backend: inproc (shared memory) or wire (unix-socket cluster conformance sweep)",
			"inproc", "wire"),
	}
}

// reads names the flags each mode reads. -transport, which selects the
// mode, and -list, which runs none, go with every mode.
var reads = map[string][]string{
	"clean":  {"seed", "rounds", "maxn", "shrink", "check", "quiet"},
	"mutate": {"seed", "mutate", "mutrounds", "quiet"},
	"chaos":  {"seed", "chaos", "kill", "trials", "maxn", "watchdog", "quiet"},
	"wire":   {"seed", "rounds", "chaos", "kill", "maxn", "watchdog", "quiet"},
}

// mode names the one mode the flags select — wire, chaos, mutate or clean —
// or refuses, by name, every set flag the selected mode would silently
// ignore.
func (o *options) mode() (string, error) {
	mode, by := "clean", "the clean matrix (it runs without -chaos, -mutate or -transport wire)"
	switch {
	case *o.transport == "wire" && !*o.chaos && !*o.kill:
		mode, by = "wire", "-transport wire without -chaos or -kill"
	case *o.transport == "wire":
		mode, by = "wire", "-transport wire"
	case *o.chaos:
		mode, by = "chaos", "-chaos"
	case *o.mutate:
		mode, by = "mutate", "-mutate"
	}
	read := reads[mode]
	if mode == "wire" && (*o.chaos || *o.kill) {
		read = append(read[:len(read):len(read)], "trials") // sizes the chaos and kill rows
	}
	var ignored []string
	o.fs.Visit(func(f *flag.Flag) {
		if f.Name != "transport" && f.Name != "list" && !slices.Contains(read, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return "", fmt.Errorf("%s: not read by %s", strings.Join(ignored, ", "), by)
	}
	return mode, nil
}

// rows is the list of soak rows the mode runs, sized by the flags.
func (o *options) rows(mode string) []verify.Soak {
	sized := func(s verify.Soak, trials int) verify.Soak {
		s.Trials = trials
		return s
	}
	switch mode {
	case "mutate":
		var rows []verify.Soak
		for _, s := range verify.Mutations {
			rows = append(rows, sized(s, *o.mutRounds))
		}
		return rows
	case "chaos":
		if *o.kill {
			return []verify.Soak{sized(verify.ChaosKill, *o.trials)}
		}
		return []verify.Soak{sized(verify.Chaos, *o.trials)}
	case "wire":
		// Without -chaos the dual-backend soak keeps its small conformance
		// budget; -kill appends the kill rotation on hosted clusters.
		rows := []verify.Soak{sized(verify.WireClean, *o.rounds), sized(verify.WireChaos, 16)}
		if *o.chaos {
			rows[1].Trials = *o.trials
		}
		if *o.kill {
			rows = append(rows, sized(verify.WireKill, *o.trials))
		}
		return rows
	}
	return []verify.Soak{sized(verify.Clean, *o.rounds)}
}

func main() {
	o := newOptions(flag.ExitOnError)
	o.fs.Parse(os.Args[1:])
	if *o.list {
		for _, c := range verify.Checks() {
			tag := ""
			if c.Mutation {
				tag = "  [mutation]"
			}
			fmt.Printf("%s%s\n", c.Name, tag)
		}
		return
	}
	mode, err := o.mode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyrun: %v\n", err)
		os.Exit(2)
	}
	cfg := verify.Config{Seed: *o.seed, MaxN: *o.maxN, Shrink: *o.shrink, Watchdog: *o.watchdog}
	if cfg.Checks, err = verify.Named(*o.check, false); err != nil {
		fmt.Fprintf(os.Stderr, "verifyrun: %v\n", err)
		os.Exit(2)
	}
	if !*o.quiet {
		cfg.Log = os.Stdout
	}

	rows := o.rows(mode)
	ok, detected := len(rows) > 0, 0
	for _, row := range rows {
		rep := row.Run(cfg)
		fmt.Println("verifyrun:", rep)
		if rep.Count[verify.Detected] > 0 {
			detected++
		}
		if rep.OK() {
			continue
		}
		ok = false
		fmt.Fprintf(os.Stderr, "FAIL %s (%d checks run)\n", rep.Soak, rep.Checks)
		for _, rec := range rep.Records {
			if rec.Outcome == verify.Wrong || rec.Outcome == verify.Hang {
				fmt.Fprintf(os.Stderr, "FAIL %s round %d %s: %s: %v\n  trial: %s\n",
					rep.Soak, rec.Round, rec.Check, rec.Outcome, rec.Err, rec.Trial)
				if rec.Shrunk != nil {
					fmt.Fprintf(os.Stderr, "  shrunk in %d runs to: %s\n", rec.ShrinkRuns, rec.Shrunk)
				}
			}
		}
	}
	if mode == "mutate" {
		fmt.Printf("verifyrun: mutate detected=%d/%d\n", detected, len(rows))
	}
	if !ok {
		os.Exit(1)
	}
}
