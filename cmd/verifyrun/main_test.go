package main

import (
	"strings"
	"testing"
)

// TestModeSelection: every flag combination selects exactly one mode, and a
// flag the selected mode would silently ignore is refused by name instead.
func TestModeSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sel    selection
		mode   string   // the selected mode when the flags go together
		refuse []string // else the two flags the refusal must name
	}{
		{"default", selection{transport: "inproc"}, "clean", nil},
		{"check", selection{transport: "inproc", check: "cc/sv"}, "clean", nil},
		{"scheme", selection{transport: "inproc", scheme: "hub"}, "clean", nil},
		{"mutate", selection{transport: "inproc", mutate: true}, "mutate", nil},
		{"chaos", selection{transport: "inproc", chaos: true, scheme: "cyclic"}, "chaos", nil},
		{"chaos kill", selection{transport: "inproc", chaos: true, kill: true}, "chaos", nil},
		{"wire", selection{transport: "wire"}, "wire", nil},
		{"wire chaos kill block", selection{transport: "wire", chaos: true, kill: true, scheme: "block"}, "wire", nil},

		{"check under chaos", selection{transport: "inproc", chaos: true, check: "cc/sv"}, "", []string{"-check", "-chaos"}},
		{"check under mutate", selection{transport: "inproc", mutate: true, check: "cc/sv"}, "", []string{"-check", "-mutate"}},
		{"check under wire", selection{transport: "wire", check: "cc/sv"}, "", []string{"-check", "-transport wire"}},
		{"kill alone", selection{transport: "inproc", kill: true}, "", []string{"-kill", "-chaos"}},
		{"kill under mutate", selection{transport: "inproc", mutate: true, kill: true}, "", []string{"-kill", "-mutate"}},
		{"mutate with chaos", selection{transport: "inproc", mutate: true, chaos: true}, "", []string{"-mutate", "-chaos"}},
		{"mutate with wire", selection{transport: "wire", mutate: true}, "", []string{"-mutate", "-transport wire"}},
		{"scheme under mutate", selection{transport: "inproc", mutate: true, scheme: "hub"}, "", []string{"-scheme", "-mutate"}},
		{"scheme on wire", selection{transport: "wire", scheme: "cyclic"}, "", []string{"-scheme", "wire"}},
	} {
		mode, err := tc.sel.mode()
		if tc.refuse == nil {
			if err != nil || mode != tc.mode {
				t.Errorf("%s: mode %q err %v, want mode %q", tc.name, mode, err, tc.mode)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: selected mode %q, want a refusal naming %v", tc.name, mode, tc.refuse)
			continue
		}
		for _, flag := range tc.refuse {
			if !strings.Contains(err.Error(), flag) {
				t.Errorf("%s: refusal %q does not name %s", tc.name, err, flag)
			}
		}
	}
}
