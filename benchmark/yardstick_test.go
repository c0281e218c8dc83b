package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// yardCPUComponents pins the frozen kernel's answer on the frozen edge
// list. If this number changes, the yardstick changed, and with it the
// unit of every normalised metric.
const yardCPUComponents = 36

func TestYardCPUDeterministic(t *testing.T) {
	a, b := newYardCPU(), newYardCPU()
	for round := 0; round < 2; round++ {
		da, ca := a.run()
		_, cb := b.run()
		if ca != cb || ca != yardCPUComponents {
			t.Fatalf("round %d: components %d and %d, want %d", round, ca, cb, yardCPUComponents)
		}
		if da <= 0 {
			t.Fatalf("round %d: non-positive duration %v", round, da)
		}
	}
	for w := 1; w < yardCPUWorkers; w++ {
		if got := a.components(a.parent[w]); got != yardCPUComponents {
			t.Errorf("worker %d: components %d, want %d", w, got, yardCPUComponents)
		}
	}
}

func TestYardSockRoundTrips(t *testing.T) {
	y, err := newYardSock()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	before, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	d, err := y.run()
	if err != nil || d <= 0 {
		t.Fatalf("run = %v, %v", d, err)
	}
	after, err := readProcIO()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly yardSockTrips messages each way, bar the odd 8-byte eventfd
	// wake-up the Go netpoller writes.
	want := uint64(2 * yardSockTrips * yardSockBytes)
	if got := after.wchar - before.wchar; got < want || got > want+1024 {
		t.Errorf("wrote %d bytes, want %d", got, want)
	}
}

// The yardsticks and oracles must not share code with what they measure
// and check.
func TestFrozenFilesImportNothingFromTheProgram(t *testing.T) {
	for _, file := range []string{"yardstick.go", "oracle.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "pgasgraph") {
				t.Errorf("%s imports %s", file, imp.Path.Value)
			}
		}
	}
}

func TestSplitmixDeterministic(t *testing.T) {
	a, b := newRand(42), newRand(42)
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
	if newRand(42).split(1).next() == newRand(42).split(2).next() {
		t.Error("split streams coincide")
	}
	r := newRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn(10) = %d", v)
		}
	}
}
