package psort

import (
	"testing"
	"testing/quick"
)

// BucketByKey is BucketByKeyInto with a fresh cursor per call.
func BucketByKey(items []int64, keys []int32, k int, sorted []int64, pos []int32, offs []int64) {
	BucketByKeyInto(items, keys, k, sorted, pos, offs, make([]int64, k))
}

func TestBucketByKey(t *testing.T) {
	items := []int64{10, 20, 30, 40, 50, 60}
	keys := []int32{2, 0, 1, 2, 0, 1}
	sorted := make([]int64, 6)
	pos := make([]int32, 6)
	offs := make([]int64, 4)
	BucketByKey(items, keys, 3, sorted, pos, offs)

	wantSorted := []int64{20, 50, 30, 60, 10, 40}
	wantOffs := []int64{0, 2, 4, 6}
	for i := range sorted {
		if sorted[i] != wantSorted[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, sorted[i], wantSorted[i])
		}
	}
	for i := range offs {
		if offs[i] != wantOffs[i] {
			t.Fatalf("offs[%d] = %d, want %d", i, offs[i], wantOffs[i])
		}
	}
	// pos must be the inverse routing: sorted[j] == items[pos[j]].
	for j := range sorted {
		if items[pos[j]] != sorted[j] {
			t.Fatalf("pos[%d] = %d does not route back", j, pos[j])
		}
	}
}

func TestBucketByKeyStable(t *testing.T) {
	items := []int64{1, 2, 3, 4}
	keys := []int32{0, 0, 0, 0}
	sorted := make([]int64, 4)
	pos := make([]int32, 4)
	offs := make([]int64, 2)
	BucketByKey(items, keys, 1, sorted, pos, offs)
	for i, v := range sorted {
		if v != items[i] {
			t.Fatalf("stability broken: %v", sorted)
		}
	}
}

func TestBucketByKeyProperty(t *testing.T) {
	check := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw%32) + 1
		items := make([]int64, len(raw))
		keys := make([]int32, len(raw))
		for i, v := range raw {
			items[i] = int64(v)
			keys[i] = int32(int(v) % k)
		}
		sorted := make([]int64, len(items))
		pos := make([]int32, len(items))
		offs := make([]int64, k+1)
		BucketByKey(items, keys, k, sorted, pos, offs)
		// Every bucket segment holds exactly the items with that key,
		// and pos routes back.
		for b := 0; b < k; b++ {
			for _, v := range sorted[offs[b]:offs[b+1]] {
				if int(v)%k != b {
					return false
				}
			}
		}
		for j := range sorted {
			if items[pos[j]] != sorted[j] {
				return false
			}
		}
		return offs[k] == int64(len(items))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketByKeyPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("key out of range", func() {
		BucketByKey([]int64{1}, []int32{5}, 3, make([]int64, 1), make([]int32, 1), make([]int64, 4))
	})
	expectPanic("length mismatch", func() {
		BucketByKey([]int64{1, 2}, []int32{0}, 1, make([]int64, 2), make([]int32, 2), make([]int64, 2))
	})
	expectPanic("bad offs", func() {
		BucketByKey([]int64{1}, []int32{0}, 2, make([]int64, 1), make([]int32, 1), make([]int64, 2))
	})
}
