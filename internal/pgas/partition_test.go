package pgas

import (
	"errors"
	"fmt"
	"testing"

	"pgasgraph/internal/machine"
)

// partCases enumerates the scheme x geometry x size matrix the partition
// law tests sweep. Hub specs deliberately include duplicates and
// out-of-range ids, which the table builder must tolerate.
func partCases() []struct {
	spec       PartitionSpec
	nodes, tpn int
	n          int64
} {
	specs := []PartitionSpec{
		{Kind: SchemeBlock},
		{Kind: SchemeCyclic},
		{Kind: SchemeHub}, // no hubs: pure ascending tail
		{Kind: SchemeHub, Hubs: []int64{7, 0, 3, 7, 500}},
		{Kind: SchemeHub, Hubs: []int64{2, 2, 2}},
	}
	geoms := [][2]int{{1, 1}, {1, 4}, {2, 2}, {3, 2}}
	sizes := []int64{1, 5, 16, 97}
	var cases []struct {
		spec       PartitionSpec
		nodes, tpn int
		n          int64
	}
	for _, spec := range specs {
		for _, g := range geoms {
			for _, n := range sizes {
				cases = append(cases, struct {
					spec       PartitionSpec
					nodes, tpn int
					n          int64
				}{spec, g[0], g[1], n})
			}
		}
	}
	return cases
}

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

// TestPartitionLaws checks the ownership laws every scheme must satisfy:
// owners in range, ownerNode consistent with Owner, ThreadCover a disjoint
// exact cover, Owner agreeing with the block and cyclic rules computed
// directly, and ServeView addressing every owned element.
func TestPartitionLaws(t *testing.T) {
	for _, tc := range partCases() {
		name := fmt.Sprintf("%s/%dx%d/n=%d", tc.spec.Kind, tc.nodes, tc.tpn, tc.n)
		t.Run(name, func(t *testing.T) {
			rt := partRT(t, tc.nodes, tc.tpn)
			a := rt.NewSharedArrayPart("p", tc.n, tc.spec)
			s := tc.nodes * tc.tpn

			// Owner in range; ownerNode consistent.
			for i := int64(0); i < tc.n; i++ {
				o := a.Owner(i)
				if o < 0 || o >= s {
					t.Fatalf("Owner(%d) = %d out of [0,%d)", i, o, s)
				}
				if nd := a.ownerNode(i); nd != o/tc.tpn {
					t.Fatalf("ownerNode(%d) = %d, want %d", i, nd, o/tc.tpn)
				}
			}

			// ThreadCover: disjoint exact cover in thread order.
			var at int64
			for id := 0; id < s; id++ {
				lo, hi := a.ThreadCover(id)
				if lo != at || hi < lo {
					t.Fatalf("ThreadCover(%d) = [%d,%d), want lo=%d", id, lo, hi, at)
				}
				at = hi
				if tc.spec.Kind == SchemeBlock {
					// Under the block scheme the cover is the owned range.
					for i := lo; i < hi; i++ {
						if o := a.Owner(i); o != id {
							t.Fatalf("block ThreadCover(%d) = [%d,%d) holds element %d of thread %d", id, lo, hi, i, o)
						}
					}
				}
			}
			if at != tc.n {
				t.Fatalf("covers end at %d, want %d", at, tc.n)
			}

			// Block and cyclic Owner equal their rules by division and
			// modulo.
			if kind := tc.spec.Kind; kind != SchemeHub {
				blk := (tc.n + int64(s) - 1) / int64(s)
				for i := int64(0); i < tc.n; i++ {
					want := int(i % int64(s))
					if kind == SchemeBlock {
						want = int(i / blk)
					}
					if got := a.Owner(i); got != want {
						t.Fatalf("Owner(%d) = %d, the %s rule says %d", i, got, kind, want)
					}
				}
			}

			// ServeView addresses every owned element at local[g-base].
			for id := 0; id < s; id++ {
				local, base := a.ServeView(id)
				for i := int64(0); i < tc.n; i++ {
					if a.Owner(i) != id {
						continue
					}
					if i-base < 0 || i-base >= int64(len(local)) {
						t.Fatalf("ServeView(%d): owned %d not addressable at base %d len %d", id, i, base, len(local))
					}
				}
			}
		})
	}
}

// TestHubPlacement pins the hub scheme's placement rule: the h-th valid
// hub (in spec order, in-range, first occurrence) lands on thread h%s,
// and duplicates and out-of-range entries are skipped without shifting
// later assignments.
func TestHubPlacement(t *testing.T) {
	rt := partRT(t, 2, 2) // s = 4
	spec := PartitionSpec{Kind: SchemeHub, Hubs: []int64{9, 3, 9, 100, 7, 0, 5}}
	a := rt.NewSharedArrayPart("h", 10, spec)
	// Valid hubs in order: 9, 3, 7, 0, 5 -> threads 0, 1, 2, 3, 0.
	want := map[int64]int{9: 0, 3: 1, 7: 2, 0: 3, 5: 0}
	for h, id := range want {
		if o := a.Owner(h); o != id {
			t.Fatalf("hub %d on thread %d, want %d", h, o, id)
		}
	}
	// The non-hub tail (1,2,4,6,8) is dealt ascending into Span shares of
	// 5 over 4 threads: 2,1,1,1.
	tailWant := map[int64]int{1: 0, 2: 0, 4: 1, 6: 2, 8: 3}
	for v, id := range tailWant {
		if o := a.Owner(v); o != id {
			t.Fatalf("tail %d on thread %d, want %d", v, o, id)
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
// accessor (never a silently empty or aliased range), and invalid specs
// are rejected up front.
func TestPartitionMisuse(t *testing.T) {
	rt := partRT(t, 1, 2)
	for _, spec := range []PartitionSpec{{Kind: SchemeBlock}, {Kind: SchemeCyclic}, {Kind: SchemeHub, Hubs: []int64{3}}} {
		a := rt.NewSharedArrayPart("m"+spec.Kind.String(), 8, spec)
		mustPanicMisuse(t, spec.Kind.String()+" Owner(-1)", func() { a.Owner(-1) })
		mustPanicMisuse(t, spec.Kind.String()+" Owner(n)", func() { a.Owner(8) })
		mustPanicMisuse(t, spec.Kind.String()+" ownerNode(n)", func() { a.ownerNode(8) })
		for _, id := range []int{-1, 2} {
			mustPanicMisuse(t, fmt.Sprintf("%s ThreadCover(%d)", spec.Kind, id), func() { a.ThreadCover(id) })
			mustPanicMisuse(t, fmt.Sprintf("%s ServeView(%d)", spec.Kind, id), func() { _, _ = a.ServeView(id) })
		}
	}

	if err := rt.SetPartition(PartitionSpec{Kind: SchemeKind(42)}); !errors.Is(err, ErrMisuse) {
		t.Fatalf("unknown kind: err = %v, want ErrMisuse", err)
	}
	if err := rt.SetPartition(PartitionSpec{Kind: SchemeHub, Hubs: []int64{-3}}); !errors.Is(err, ErrMisuse) {
		t.Fatalf("negative hub: err = %v, want ErrMisuse", err)
	}
	mustPanicMisuse(t, "NewSharedArrayPart bad kind", func() {
		rt.NewSharedArrayPart("bad", 4, PartitionSpec{Kind: SchemeKind(9)})
	})
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
