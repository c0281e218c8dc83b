package pgas

import (
	"errors"
	"fmt"
	"testing"

	"pgasgraph/internal/machine"
)

func partRT(t *testing.T, nodes, tpn int) *Runtime {
	t.Helper()
	cfg := machine.PaperCluster()
	cfg.Nodes, cfg.ThreadsPerNode = nodes, tpn
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

// TestPartitionLaws checks the block ownership laws: owners in range,
// ownerNode consistent with Owner, Owner equal to the block rule computed
// by division, and ThreadCover a disjoint exact cover of owned ranges in
// thread order.
func TestPartitionLaws(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {3, 2}} {
		for _, n := range []int64{1, 5, 16, 97} {
			nodes, tpn := g[0], g[1]
			t.Run(fmt.Sprintf("block/%dx%d/n=%d", nodes, tpn, n), func(t *testing.T) {
				rt := partRT(t, nodes, tpn)
				a := rt.NewSharedArray("p", n)
				s := nodes * tpn
				blk := (n + int64(s) - 1) / int64(s)
				for i := int64(0); i < n; i++ {
					o := a.Owner(i)
					if want := int(i / blk); o != want {
						t.Fatalf("Owner(%d) = %d, the block rule says %d", i, o, want)
					}
					if nd := a.ownerNode(i); nd != o/tpn {
						t.Fatalf("ownerNode(%d) = %d, want %d", i, nd, o/tpn)
					}
				}

				var at int64
				for id := 0; id < s; id++ {
					lo, hi := a.ThreadCover(id)
					if lo != at || hi < lo {
						t.Fatalf("ThreadCover(%d) = [%d,%d), want lo=%d", id, lo, hi, at)
					}
					at = hi
					for i := lo; i < hi; i++ {
						if o := a.Owner(i); o != id {
							t.Fatalf("ThreadCover(%d) = [%d,%d) holds element %d of thread %d", id, lo, hi, i, o)
						}
					}
				}
				if at != n {
					t.Fatalf("covers end at %d, want %d", at, n)
				}
			})
		}
	}
}

func mustPanicMisuse(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrMisuse) {
			t.Fatalf("%s: panic %v not classified ErrMisuse", what, r)
		}
	}()
	f()
}

// TestPartitionMisuse pins the classified-misuse contract: out-of-range
// element indices and thread ids fail loudly with ErrMisuse on every
// accessor, never a silently empty or aliased range.
func TestPartitionMisuse(t *testing.T) {
	rt := partRT(t, 1, 2)
	a := rt.NewSharedArray("m", 8)
	mustPanicMisuse(t, "Owner(-1)", func() { a.Owner(-1) })
	mustPanicMisuse(t, "Owner(n)", func() { a.Owner(8) })
	mustPanicMisuse(t, "ownerNode(n)", func() { a.ownerNode(8) })
	for _, id := range []int{-1, 2} {
		mustPanicMisuse(t, fmt.Sprintf("ThreadCover(%d)", id), func() { a.ThreadCover(id) })
	}
}

// TestBlockKeysMultiplyEqualsDivide: the block scheme's owner keys come
// from one multiply by ⌈2^64/blk⌉ (blockRecip) wherever that is exact, and
// from the division everywhere else. Exhaustive over every (n, s) with
// n <= 4096 and s <= 64 — every index, so the short last block too — then
// the edges of the argument: blk 1 (no reciprocal fits a word), the block
// sizes around 2^31, the largest index below 2^32, and the fallback at and
// above 2^32 elements.
func TestBlockKeysMultiplyEqualsDivide(t *testing.T) {
	check := func(n, blk int64, indices []int64) {
		t.Helper()
		for _, ix := range indices {
			if got, want := blockKey(ix, blk, blockRecip(n, blk)), int32(ix/blk); got != want {
				t.Fatalf("n=%d blk=%d: key of index %d = %d, want %d (recip %#x)",
					n, blk, ix, got, want, blockRecip(n, blk))
			}
		}
	}

	all := make([]int64, 4096)
	for i := range all {
		all[i] = int64(i)
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for n := int64(1); n <= 4096; n += step {
		for s := int64(1); s <= 64; s++ {
			check(n, (n+s-1)/s, all[:n])
		}
	}

	// edges lists, for a block size, the indices where a wrong quotient
	// would show first: both sides of every block boundary near the ends of
	// the range, and the ends themselves.
	edges := func(n, blk int64) []int64 {
		var idx []int64
		add := func(ix int64) {
			if ix >= 0 && ix < n {
				idx = append(idx, ix)
			}
		}
		last := (n - 1) / blk
		for _, q := range []int64{0, 1, 2, last / 2, last - 1, last} {
			for d := int64(-2); d <= 2; d++ {
				add(q*blk + d)
			}
		}
		add(n - 1)
		return idx
	}
	const two32 = int64(1) << 32
	for _, tc := range []struct{ n, blk int64 }{
		{64, 1},                    // blk == 1: the reciprocal would be 2^64
		{two32, 1<<31 - 1},         // s = 3, short last block of 2 elements
		{two32, 1 << 31},           // s = 2, power-of-two block
		{two32 - 1, 1 << 31},       // largest array whose last index is 2^32 - 2
		{two32, 3},                 // tiny blocks, quotients near 2^32/3
		{two32, two32},             // one block holds everything
		{two32 + 1, 1 << 31},       // 2^32 is an index: division
		{1 << 40, (1<<40 + 6) / 7}, // far above: division
		{1 << 40, 1},               // blk == 1 above the limit
	} {
		recip := blockRecip(tc.n, tc.blk)
		if wantMul := tc.n <= two32 && tc.blk > 1; (recip != 0) != wantMul {
			t.Errorf("n=%d blk=%d: reciprocal %#x, multiply path expected: %v", tc.n, tc.blk, recip, wantMul)
		}
		check(tc.n, tc.blk, edges(tc.n, tc.blk))
	}
	// The largest index below 2^32 against every block size class.
	for _, blk := range []int64{2, 3, 5, 1<<16 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, two32 - 1, two32} {
		check(two32, blk, []int64{two32 - 1, two32 - 2, blk - 1, blk % two32, (2*blk - 1) % two32})
	}
}
