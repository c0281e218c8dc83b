package cc

import (
	"testing"
)

// TestSpreadLayout: for n in {1, 2, 3}, primes, powers of two and their
// neighbours, pos is a bijection on [0, n) with inv its exact inverse,
// pos(0) = 0, and for every k no block of an s-way block partition, s in
// {2, 8, 128}, holds more than 2·ceil(k/s) of the k smallest ids. At the
// largest n the layout takes, where the products come closest to 2^63,
// inv still inverts pos at the ends of the id range and on a sample.
func TestSpreadLayout(t *testing.T) {
	ns := []int64{1, 2, 3, 5, 7, 13, 97, 257, 1021, 4093, 65521}
	for _, k := range []uint{4, 7, 10, 13, 14, 16, 17} {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range ns {
		s := newSpread(n)
		if p := s.pos(0); p != 0 {
			t.Fatalf("n=%d: pos(0) = %d", n, p)
		}
		seen := make([]bool, n)
		for v := int64(0); v < n; v++ {
			p := s.pos(v)
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("n=%d: pos(%d) = %d is out of range or taken twice", n, v, p)
			}
			seen[p] = true
			if back := s.inv(p); back != v {
				t.Fatalf("n=%d: inv(pos(%d)) = %d", n, v, back)
			}
		}
		for _, parts := range []int64{2, 8, 128} {
			blk := (n + parts - 1) / parts // the block partition's block
			held := make([]int64, parts)
			for k := int64(1); k <= n; k++ {
				b := s.pos(k-1) / blk
				held[b]++
				if limit := 2 * ((k + parts - 1) / parts); held[b] > limit {
					t.Fatalf("n=%d s=%d: block %d holds %d of the %d smallest ids, limit %d", n, parts, b, held[b], k, limit)
				}
			}
		}
	}
	for _, n := range []int64{1<<31 - 1, 1 << 31} {
		s := newSpread(n)
		for i := int64(0); i < 4096; i++ {
			for _, v := range []int64{i, n - 1 - i, i * (n / 4096)} {
				if p := s.pos(v); p < 0 || p >= n || s.inv(p) != v {
					t.Fatalf("n=%d: pos(%d) = %d, inv gives %d", n, v, p, s.inv(p))
				}
			}
		}
	}
}
