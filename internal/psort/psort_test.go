package psort

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pgasgraph/internal/xrand"
)

func randomSlice(n int, seed uint64) []int64 {
	r := xrand.New(seed)
	s := make([]int64, n)
	for i := range s {
		s[i] = r.Int63()
	}
	return s
}

func TestQuicksortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 100, 1000, 10000} {
		got := randomSlice(n, uint64(n)+1)
		want := append([]int64(nil), got...)
		Quicksort(got)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestQuicksortAdversarial(t *testing.T) {
	cases := map[string][]int64{
		"sorted":     {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
		"reversed":   {18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		"duplicates": {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		"twovalues":  {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
		"negatives":  {-3, 7, -1, 0, -3, 2, -9, 4, 1, 1, -5, 8, 0, -2, 6, -7, 3, -4},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			Quicksort(s)
			if !slices.IsSorted(s) {
				t.Fatalf("not sorted: %v", s)
			}
		})
	}
}

func TestQuicksortProperty(t *testing.T) {
	check := func(s []int64) bool {
		mine := append([]int64(nil), s...)
		std := append([]int64(nil), s...)
		Quicksort(mine)
		sort.Slice(std, func(i, j int) bool { return std[i] < std[j] })
		for i := range mine {
			if mine[i] != std[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 65, 1000, 4097} {
		got := randomSlice(n, uint64(n)+7)
		want := append([]int64(nil), got...)
		passes := MergeSort(got)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		// passes must be ceil(log2(n)) for n >= 2.
		if n >= 2 {
			wantPasses := 0
			for w := 1; w < n; w *= 2 {
				wantPasses++
			}
			if passes != wantPasses {
				t.Fatalf("n=%d: %d passes, want %d", n, passes, wantPasses)
			}
		}
	}
}

func TestMergeSortStability(t *testing.T) {
	// Packed (key, id) values: equal keys must keep id order, since the
	// MST kernels rely on (weight, id) orderings.
	s := []int64{2<<32 | 0, 1<<32 | 1, 2<<32 | 2, 1<<32 | 3, 1<<32 | 4}
	MergeSort(s)
	want := []int64{1<<32 | 1, 1<<32 | 3, 1<<32 | 4, 2<<32 | 0, 2<<32 | 2}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("stability broken at %d: %v", i, s)
		}
	}
}

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
