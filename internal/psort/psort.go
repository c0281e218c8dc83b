// Package psort provides the sorting routines the reproduction depends on:
// the linear-time count sort (bucketing) used inside the GetD/SetD
// collectives and Algorithm 1's group phase, quicksort (the paper's Figure
// 3 deliberately uses it to show coalescing wins even with a sort that is
// "more than 50 times slower than count sort"), and the cache-friendly
// bottom-up merge sort the paper's sequential Kruskal baseline uses.
package psort

import "fmt"

// BucketByKeyInto stably groups items by keys[i], which must lie in
// [0, k). It fills:
//
//	sorted — items grouped by key (stable within each bucket),
//	pos    — pos[j] = original index of sorted[j] (the inverse permutation
//	         needed by Algorithm 2's permute-back phase),
//	offs   — bucket boundaries, len k+1: bucket b is sorted[offs[b]:offs[b+1]].
//
// sorted and pos must have len(items); offs must have len k+1. This is the
// two-pass count sort the paper's collectives run per superstep. cursor is
// the caller's bucket-cursor scratch (len >= k, contents overwritten), so
// the sort allocates nothing.
func BucketByKeyInto(items []int64, keys []int32, k int, sorted []int64, pos []int32, offs []int64, cursor []int64) {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("psort: len(keys)=%d != len(items)=%d", len(keys), len(items)))
	}
	if len(sorted) != len(items) || len(pos) != len(items) {
		panic("psort: output buffers must match input length")
	}
	if len(offs) != k+1 {
		panic(fmt.Sprintf("psort: len(offs)=%d, want k+1=%d", len(offs), k+1))
	}
	if len(cursor) < k {
		panic(fmt.Sprintf("psort: len(cursor)=%d, want >= k=%d", len(cursor), k))
	}
	clear(offs)
	for _, key := range keys {
		if key < 0 || int(key) >= k {
			panic(fmt.Sprintf("psort: key %d out of range [0,%d)", key, k))
		}
		offs[key+1]++
	}
	for b := 0; b < k; b++ {
		offs[b+1] += offs[b]
	}
	copy(cursor[:k], offs[:k])
	for i, item := range items {
		b := keys[i]
		p := cursor[b]
		cursor[b]++
		sorted[p] = item
		pos[p] = int32(i)
	}
}

// Quicksort sorts s in place with median-of-three pivoting and insertion
// sort below a small cutoff. Deterministic.
func Quicksort(s []int64) {
	for len(s) > 16 {
		p := partition(s)
		// Recurse on the smaller side to bound stack depth.
		if p < len(s)-p-1 {
			Quicksort(s[:p])
			s = s[p+1:]
		} else {
			Quicksort(s[p+1:])
			s = s[:p]
		}
	}
	insertion(s)
}

func insertion(s []int64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func partition(s []int64) int {
	mid := len(s) / 2
	hi := len(s) - 1
	// Median of three to s[hi].
	if s[0] > s[mid] {
		s[0], s[mid] = s[mid], s[0]
	}
	if s[0] > s[hi] {
		s[0], s[hi] = s[hi], s[0]
	}
	if s[mid] > s[hi] {
		s[mid], s[hi] = s[hi], s[mid]
	}
	s[mid], s[hi-1] = s[hi-1], s[mid]
	pivot := s[hi-1]
	i := 0
	for j := 1; j < hi-1; j++ {
		if s[j] < pivot {
			i++
			if i != j {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	s[i+1], s[hi-1] = s[hi-1], s[i+1]
	return i + 1
}

// MergeSort sorts s with a bottom-up (cache-friendly) merge sort: each pass
// streams the whole array sequentially, the access pattern the paper
// prefers for the Kruskal baseline on deep memory hierarchies. It returns
// the number of passes performed, which the sequential cost model charges
// as streaming scans.
func MergeSort(s []int64) int {
	n := len(s)
	if n < 2 {
		return 0
	}
	buf := make([]int64, n)
	src, dst := s, buf
	passes := 0
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
		passes++
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return passes
}

func merge(a, b, out []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}
