package verify

import (
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/serve"
)

// TestRacyOpsDerivedFromRegistry pins the single-source-of-truth
// contract: for every battery check named after a serve-registry kernel,
// the check's RacyOps flag equals the registry's declaration. A new
// kernel declares raciness once, on its registry row, and the harness
// follows.
func TestRacyOpsDerivedFromRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range serve.Kernels() {
		registered[name] = true
	}
	covered := 0
	for _, c := range Checks() {
		if !registered[c.Name] {
			continue
		}
		covered++
		if c.RacyOps != serve.RacyOps(c.Name) {
			t.Errorf("check %s: RacyOps = %v, registry declares %v", c.Name, c.RacyOps, serve.RacyOps(c.Name))
		}
	}
	if covered < 7 {
		t.Errorf("only %d battery checks share a registry kernel name; expected the CC family + naive", covered)
	}
}

// TestPinnedKernelNames: the two hand-kept kernel name lists — ccFamily,
// whose length and order the chaos digests mix, and the kernel-named part
// of the wire battery — stay what they are pinned to, and every name in them is
// a registered, non-racy row, so neither list can rot as the registry
// grows or renames.
func TestPinnedKernelNames(t *testing.T) {
	if want := []string{"cc/coalesced", "cc/sv", "cc/fastsv", "cc/lt-prs", "cc/lt-pus", "cc/lt-ers"}; !slices.Equal(ccFamily, want) {
		t.Errorf("ccFamily = %v, pinned to %v (the chaos digests mix Seed %% len)", ccFamily, want)
	}
	wire := battery(wireRow, nil)
	if len(wire) != 9 {
		t.Errorf("the wire battery has %d checks, want 9: a listed name left the battery", len(wire))
	}
	names := slices.Clone(ccFamily)
	for _, c := range wire {
		if !strings.HasPrefix(c.Name, "collective/") {
			names = append(names, c.Name)
		}
	}
	for _, name := range names {
		if !slices.Contains(serve.Kernels(), name) || serve.RacyOps(name) {
			t.Errorf("%s: registered %v, racy %v; want a registered, non-racy row",
				name, slices.Contains(serve.Kernels(), name), serve.RacyOps(name))
		}
	}
}

// TestChaosRotationSkipsRacy runs a short real soak and asserts the
// rotation never selected a RacyOps check — the bit-for-bit replay
// guarantee of the chaos digest depends on it.
func TestChaosRotationSkipsRacy(t *testing.T) {
	racy := map[string]bool{}
	any := false
	for _, c := range Checks() {
		racy[c.Name] = c.RacyOps
		any = any || c.RacyOps
	}
	if !any {
		t.Fatal("battery declares no RacyOps checks; the exclusion is untestable")
	}
	rep := soak(Chaos, 2*len(Checks()), Config{Seed: 0x5afe, MaxN: 60})
	if len(rep.Records) == 0 {
		t.Fatal("soak produced no runs")
	}
	for _, rec := range rep.Records {
		if racy[rec.Check] {
			t.Errorf("round %d: chaos rotation selected RacyOps check %s", rec.Round, rec.Check)
		}
	}
}
