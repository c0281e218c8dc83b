package main

import (
	"flag"
	"strings"
	"testing"
)

// TestModeSelection: every flag combination selects exactly one mode, and a
// flag the selected mode would silently ignore is refused by name instead.
// Every verifyrun invocation in .github/workflows/ci.yml is accepted.
func TestModeSelection(t *testing.T) {
	for _, tc := range []struct {
		args   string
		mode   string   // the selected mode when the flags go together
		refuse []string // else what the refusal must name
	}{
		{"", "clean", nil},
		{"-check cc/sv", "clean", nil},
		{"-mutate", "mutate", nil},
		{"-chaos", "chaos", nil},
		{"-chaos -kill", "chaos", nil},
		{"-transport wire", "wire", nil},
		{"-transport wire -chaos -kill", "wire", nil},
		{"-transport wire -kill -trials 40", "wire", nil},
		{"-transport inproc -list -chaos", "chaos", nil},

		// The CI invocations.
		{"-rounds 12 -maxn 300 -quiet", "clean", nil},
		{"-rounds 8 -maxn 300 -check cc/sv,cc/fastsv -quiet", "clean", nil},
		{"-chaos -trials 200 -quiet", "chaos", nil},
		{"-chaos -kill -trials 200 -quiet", "chaos", nil},
		{"-transport wire -rounds 2 -quiet", "wire", nil},
		{"-transport wire -kill -rounds 2 -trials 12 -quiet", "wire", nil},
		{"-rounds 6 -quiet -check serve/dispatch,serve/query-batch,serve/incremental-cc", "clean", nil},

		{"-chaos -check cc/sv", "", []string{"-check", "-chaos"}},
		{"-mutate -check cc/sv", "", []string{"-check", "-mutate"}},
		{"-transport wire -check cc/sv", "", []string{"-check", "-transport wire"}},
		{"-kill", "", []string{"-kill", "-chaos"}},
		{"-mutate -kill", "", []string{"-kill", "-mutate"}},
		{"-mutate -chaos", "", []string{"-mutate", "-chaos"}},
		{"-transport wire -mutate", "", []string{"-mutate", "-transport wire"}},
		{"-rounds 1 -trials 5 -watchdog 1s -mutrounds 2", "", []string{"-trials", "-watchdog", "-mutrounds", "clean matrix"}},
		{"-chaos -rounds 99 -shrink 5", "", []string{"-rounds", "-shrink", "-chaos"}},
		{"-mutate -maxn 50 -seed 3", "", []string{"-maxn", "-mutate"}},
		{"-transport wire -trials 5", "", []string{"-trials", "-transport wire"}},
		{"-transport wire -chaos -shrink 5", "", []string{"-shrink", "-transport wire"}},
	} {
		o := newOptions(flag.ContinueOnError)
		if err := o.fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		mode, err := o.mode()
		if tc.refuse == nil {
			if err != nil || mode != tc.mode {
				t.Errorf("%q: mode %q err %v, want mode %q", tc.args, mode, err, tc.mode)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: selected mode %q, want a refusal naming %v", tc.args, mode, tc.refuse)
			continue
		}
		for _, name := range tc.refuse {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%q: refusal %q does not name %s", tc.args, err, name)
			}
		}
	}
}
