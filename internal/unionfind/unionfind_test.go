package unionfind

import (
	"testing"
	"testing/quick"

	"pgasgraph/internal/xrand"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if sets(d) != 5 {
		t.Fatalf("Sets = %d, want 5", sets(d))
	}
	for i := int32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d) = %d before any union", i, d.Find(i))
		}
	}
}

func TestUnionBasics(t *testing.T) {
	d := New(4)
	if !d.Union(0, 1) {
		t.Fatal("first union reported no merge")
	}
	if d.Union(0, 1) || d.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("Same gave wrong answer")
	}
	if sets(d) != 3 {
		t.Fatalf("Sets = %d, want 3", sets(d))
	}
}

func TestTransitivity(t *testing.T) {
	d := New(10)
	d.Union(0, 1)
	d.Union(1, 2)
	d.Union(3, 4)
	if !d.Same(0, 2) {
		t.Fatal("transitivity broken")
	}
	if d.Same(2, 3) {
		t.Fatal("separate sets merged")
	}
	d.Union(2, 3)
	if !d.Same(0, 4) {
		t.Fatal("chain union broken")
	}
}

// Labels returns the representative of every element's set.
func (d *DS) Labels() []int64 {
	out := make([]int64, len(d.parent))
	for i := range d.parent {
		out[i] = int64(d.Find(int32(i)))
	}
	return out
}

func TestLabelsConsistent(t *testing.T) {
	d := New(8)
	d.Union(0, 7)
	d.Union(1, 6)
	d.Union(7, 6)
	labels := d.Labels()
	if labels[0] != labels[1] || labels[0] != labels[6] || labels[0] != labels[7] {
		t.Fatalf("merged set labels differ: %v", labels)
	}
	if labels[2] == labels[0] {
		t.Fatalf("unmerged element shares label: %v", labels)
	}
}

// TestAgainstNaive cross-checks random union sequences against a quadratic
// reference implementation.
func TestAgainstNaive(t *testing.T) {
	check := func(seed uint64, nRaw, opsRaw uint8) bool {
		n := int64(nRaw%50) + 2
		ops := int(opsRaw % 100)
		r := xrand.New(seed)
		d := New(n)
		naive := make([]int, n) // naive label array
		for i := range naive {
			naive[i] = i
		}
		for o := 0; o < ops; o++ {
			a := int32(r.Int64n(n))
			b := int32(r.Int64n(n))
			d.Union(a, b)
			la, lb := naive[a], naive[b]
			if la != lb {
				for i := range naive {
					if naive[i] == lb {
						naive[i] = la
					}
				}
			}
		}
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				if d.Same(int32(i), int32(j)) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		// Set count must also agree.
		distinct := map[int]bool{}
		for _, l := range naive {
			distinct[l] = true
		}
		return sets(d) == int64(len(distinct))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetsMonotone(t *testing.T) {
	d := New(100)
	r := xrand.New(17)
	prev := sets(d)
	for i := 0; i < 500; i++ {
		merged := d.Union(int32(r.Int64n(100)), int32(r.Int64n(100)))
		cur := sets(d)
		if merged && cur != prev-1 {
			t.Fatalf("merge did not decrement sets: %d -> %d", prev, cur)
		}
		if !merged && cur != prev {
			t.Fatalf("no-op union changed sets: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev < 1 {
		t.Fatalf("sets fell below 1: %d", prev)
	}
}

func TestLen(t *testing.T) {
	if New(42).Len() != 42 {
		t.Fatal("Len mismatch")
	}
}

// Same reports whether a and b are in the same set.
func (d *DS) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }

// sets counts the disjoint sets of d: its roots.
func sets(d *DS) int64 {
	var n int64
	for i := range d.parent {
		if d.Find(int32(i)) == int32(i) {
			n++
		}
	}
	return n
}

// Len returns the element count.
func (d *DS) Len() int64 { return int64(len(d.parent)) }

// TestTouches pins the touch count the sequential baselines charge: 2 per
// path-halving step, 1 for the root Find ends at, 2 per link Union makes
// and nothing for a Union that finds one root.
func TestTouches(t *testing.T) {
	d := New(6)
	copy(d.parent, []int32{0, 0, 1, 2, 3}) // the chain 4 -> 3 -> 2 -> 1 -> 0; 5 alone
	step := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: Touches = %d, want %d", what, got, want)
		}
	}
	// Two halving steps (4 -> 2 -> 0) and the root.
	if r := d.Find(4); r != 0 {
		t.Fatalf("Find(4) = %d, want 0", r)
	}
	step("Find(4) on the chain", d.Touches, 5)
	// The first walk left 4 -> 2 -> 0: one step and the root.
	d.Find(4)
	step("second Find(4)", d.Touches, 8)
	// 3 -> 2 -> 0 and 4 -> 0: one step and a root each, no link.
	if d.Union(3, 4) {
		t.Fatal("Union of one set reported a merge")
	}
	step("redundant Union(3, 4)", d.Touches, 14)
	// Two roots found in one touch each, then the link.
	if !d.Union(5, 0) {
		t.Fatal("Union of two sets reported no merge")
	}
	step("Union(5, 0)", d.Touches, 18)
}
