package main

import (
	"strings"
	"testing"
)

// TestRefusal: a flag or argument -json would silently ignore is refused
// by name — -json always runs the baseline configuration.
func TestRefusal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		set    []string
		args   []string
		refuse string // "" when the combination runs
	}{
		{"json", []string{"json", "seed", "out", "baseline", "tol", "calls"}, nil, ""},
		{"scale", []string{"json", "scale"}, nil, "-scale"},
		{"nodes", []string{"json", "nodes"}, nil, "-nodes"},
		{"csv", []string{"json", "csv"}, nil, "-csv"},
		{"markdown", []string{"json", "markdown"}, nil, "-markdown"},
		{"check", []string{"json", "check"}, nil, "-check"},
		{"figure", []string{"json"}, []string{"fig6"}, "fig6"},
	} {
		set := map[string]bool{}
		for _, f := range tc.set {
			set[f] = true
		}
		err := refusal(set, tc.args)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
			t.Errorf("%s: %v, want a refusal naming %s", tc.name, err, tc.refuse)
		}
	}
}
