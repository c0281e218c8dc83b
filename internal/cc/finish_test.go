package cc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pgasgraph/internal/pgas"
	"pgasgraph/internal/seq"
	"pgasgraph/internal/xrand"
)

// randomForest draws a parent array with D[i] <= i: roots, random smaller
// parents, and runs of D[i] = i-1 — the deep chains Naive's asynchronous
// short-cutting can leave behind.
func randomForest(rng *xrand.Rand, n int) []int64 {
	d := make([]int64, n)
	chain := 0
	for i := 1; i < n; i++ {
		switch {
		case chain > 0:
			d[i], chain = int64(i-1), chain-1
		case rng.Intn(8) == 0:
			d[i] = int64(i) // a root
		case rng.Intn(6) == 0:
			d[i], chain = int64(i-1), rng.Intn(40)
		default:
			d[i] = int64(rng.Intn(i))
		}
	}
	return d
}

// TestFinishResolvesForests: on any forest obeying the invariant, finish's
// in-place pass agrees with the oracle's functions applied to an
// independently walked copy — the map-based canonicalization and count the
// epilogue no longer shares with it.
func TestFinishResolvesForests(t *testing.T) {
	rng := xrand.New(0xf1a15)
	for trial := 0; trial < 300; trial++ {
		d := randomForest(rng, 1+rng.Intn(400))
		walked := make([]int64, len(d))
		for i := range d {
			r := int64(i)
			for d[r] != r {
				r = d[r]
			}
			walked[i] = r
		}
		res := finish(slices.Clone(d), &pgas.Result{Rounds: 3})
		if want := seq.Canonical(walked); !slices.Equal(res.Labels, want) {
			t.Fatalf("trial %d: finish(%v) = %v, want %v", trial, d, res.Labels, want)
		}
		if want := seq.CountComponents(walked); res.Components != want {
			t.Fatalf("trial %d: %d components, want %d", trial, res.Components, want)
		}
		if res.Iterations != 3 {
			t.Fatalf("trial %d: iterations %d, want 3", trial, res.Iterations)
		}
		// A resolved labeling is a fixpoint, and finish leaves it alone.
		again := finish(slices.Clone(res.Labels), &pgas.Result{})
		if !slices.Equal(again.Labels, res.Labels) || again.Components != res.Components {
			t.Fatalf("trial %d: finish is not idempotent on %v", trial, res.Labels)
		}
	}
}

// TestFinishNamesABrokenInvariant: one upward (or negative) pointer must
// panic naming the vertex, never loop or mislabel.
func TestFinishNamesABrokenInvariant(t *testing.T) {
	rng := xrand.New(0xbad)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		d := randomForest(rng, n)
		k := rng.Intn(n - 1)
		d[k] = int64(k + 1 + rng.Intn(n-1-k))
		if trial%5 == 0 {
			d[k] = -1
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			finish(d, &pgas.Result{})
			return
		}()
		if !strings.Contains(msg, fmt.Sprintf("vertex %d ", k)) {
			t.Fatalf("trial %d: D[%d] = %d: panic %q does not name the vertex", trial, k, d[k], msg)
		}
	}
}
