package main

import (
	"strings"
	"testing"
)

// TestUsage: a -checks list that would run nothing — a misspelt name, or a
// battery row outside the wire subset — is refused by name before any seat
// starts, as are the -kill and worker-mode misuses; the CI invocations pass.
func TestUsage(t *testing.T) {
	launcher := options{nodes: 2, tpn: 1, job: "battery", network: "unix"}
	for _, tc := range []struct {
		name   string
		o      func(o *options)
		launch bool
		kill   int
		refuse string // "" = accepted
	}{
		{"full battery", func(o *options) {}, true, -1, ""},
		{"wire rows", func(o *options) { o.checks = "bfs/coalesced,cc/coalesced" }, true, -1, ""},
		{"cc kill", func(o *options) { o.job, o.nodes = "cc", 3 }, true, 1, ""},
		{"worker", func(o *options) { o.node, o.dir = 1, "/mesh" }, false, -1, ""},

		{"misspelt check", func(o *options) { o.checks = "cc/coalesed" }, true, -1, `"cc/coalesed"`},
		{"misspelt check in a list", func(o *options) { o.checks = "bfs/coalesced, cc/coalesed" }, true, -1, `"cc/coalesed"`},
		{"non-wire check", func(o *options) { o.checks = "cc/naive" }, true, -1, `"cc/naive" is not in the wire battery`},
		{"worker check", func(o *options) { o.node, o.dir, o.checks = 0, "/mesh", "nope" }, false, -1, `"nope"`},
		{"battery kill", func(o *options) {}, true, 0, "-job cc"},
		{"kill out of range", func(o *options) { o.job = "cc" }, true, 2, "out of range"},
		{"worker without mesh", func(o *options) { o.node = 0 }, false, -1, "-dir"},
	} {
		o := launcher
		o.node = -1
		tc.o(&o)
		err := o.usage(tc.launch, tc.kill)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
			t.Errorf("%s: err %v, want a refusal naming %s", tc.name, err, tc.refuse)
		}
	}
}
