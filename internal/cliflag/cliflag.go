// Package cliflag holds the flag idioms shared by the repo's commands
// (verifyrun, pgasbench, pgasnode, pgasd) so every binary registers and
// validates them identically. Validation runs at parse time through the
// flag.Value interface: a bad -transport or a non-positive -nodes fails
// flag.Parse with one uniform message instead of each main hand-rolling
// its own switch with an error default.
package cliflag

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// choiceValue is a flag.Value restricted to an allowed list of strings.
type choiceValue struct {
	v       string
	name    string
	allowed []string
}

func (c *choiceValue) String() string { return c.v }

func (c *choiceValue) Set(s string) error {
	for _, a := range c.allowed {
		if s == a {
			c.v = s
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (%s)", c.name, s, strings.Join(c.allowed, " or "))
}

// Choice registers a string flag on fs (flag.CommandLine when nil) whose
// value must be one of allowed — the first is the default. Anything else
// fails at parse time with one uniform message.
func Choice(fs *flag.FlagSet, name, usage string, allowed ...string) *string {
	if fs == nil {
		fs = flag.CommandLine
	}
	if len(allowed) == 0 {
		panic("cliflag.Choice: no allowed values for -" + name)
	}
	c := &choiceValue{v: allowed[0], name: name, allowed: allowed}
	if usage == "" {
		usage = name + ": " + strings.Join(allowed, " or ")
	}
	fs.Var(c, name, usage)
	return &c.v
}

// Transport registers the shared -transport flag on fs (flag.CommandLine
// when nil). The command names which backends it supports — the first is
// the default — and usage describes them; anything else fails at parse
// time.
func Transport(fs *flag.FlagSet, usage string, allowed ...string) *string {
	if len(allowed) == 0 {
		panic("cliflag.Transport: no backends")
	}
	if usage == "" {
		usage = "fabric backend: " + strings.Join(allowed, " or ")
	}
	return Choice(fs, "transport", usage, allowed...)
}

// Network registers the shared -net socket-family flag (unix or tcp) used
// by the wire-transport commands. Unix sockets rendezvous under -dir; tcp
// needs an explicit per-node -addrs list.
func Network(fs *flag.FlagSet) *string {
	return Choice(fs, "net", "wire socket family: unix or tcp", "unix", "tcp")
}

// positiveInt is a flag.Value that rejects values below 1 at parse time.
type positiveInt struct {
	v    int
	name string
}

func (p *positiveInt) String() string { return strconv.Itoa(p.v) }

func (p *positiveInt) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("-%s must be at least 1, got %d", p.name, n)
	}
	p.v = n
	return nil
}

// Geometry registers the -nodes/-tpn cluster-shape pair on fs
// (flag.CommandLine when nil) with the given defaults, validated
// positive at parse time.
func Geometry(fs *flag.FlagSet, nodes, tpn int) (*int, *int) {
	if fs == nil {
		fs = flag.CommandLine
	}
	n := &positiveInt{v: nodes, name: "nodes"}
	t := &positiveInt{v: tpn, name: "tpn"}
	fs.Var(n, "nodes", "cluster nodes p")
	fs.Var(t, "tpn", "threads per node t")
	return &n.v, &t.v
}
