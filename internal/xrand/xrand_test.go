package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws", same)
	}
}

func TestSplitIndependentOfUse(t *testing.T) {
	// Split must depend only on the root's initial state, not on how many
	// draws were taken — the property the graph generators rely on.
	r1 := New(7)
	r2 := New(7)
	for i := 0; i < 50; i++ {
		r2.Uint64() // consume draws on one copy only
	}
	s1, s2 := r1.Split(3), r2.Split(3)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("Split result depends on prior draws from the root")
		}
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	root := New(11)
	a, b := root.Split(0), root.Split(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			t.Fatalf("streams 0 and 1 collided at draw %d", i)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; threshold is the 99.9% quantile
	// for 15 degrees of freedom (~37.7).
	r := New(123)
	const buckets = 16
	const draws = 160000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-squared %.1f exceeds 37.7; counts %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int64(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermShuffles(t *testing.T) {
	p := New(21).Perm(1000)
	fixed := 0
	for i, v := range p {
		if int64(i) == v {
			fixed++
		}
	}
	// Expected number of fixed points is 1; 20 would be absurd.
	if fixed > 20 {
		t.Fatalf("%d fixed points in a 1000-element shuffle", fixed)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestShuffleInt64Preserves(t *testing.T) {
	s := []int64{5, 6, 7, 8, 9}
	r := New(3)
	r.shuffleInt64(s)
	sum := int64(0)
	for _, v := range s {
		sum += v
	}
	if sum != 35 {
		t.Fatalf("shuffle changed multiset: %v", s)
	}
}
