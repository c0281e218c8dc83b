// Package psort holds BucketByKeyInto, the standalone form of the
// two-pass count sort the collectives run in their grouping phase
// (internal/collective's groupInto, which counts its buckets in the pass
// that filters the requests). Its callers are benchmark/'s psort.bucket_ms
// probe and tests. The paper's slower sorts — Figure 3's quicksort and
// Kruskal's merge sort — are charged by the cost model, never run: every
// stable grouping by owner, and every sort of distinct keys, gives the
// same order.
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
