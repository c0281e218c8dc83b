package pgas

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// decodeBoth decodes raw plainly and through the atomic-store path, fails
// unless both give the same words, and returns them. raw is cut to its
// length so a read past it panics.
func decodeBoth(t *testing.T, raw []byte, n int, width uint8) []int64 {
	t.Helper()
	raw = raw[:len(raw):len(raw)]
	plain, stored := make([]int64, n), make([]int64, n)
	DecodeWords(plain, raw, width, false)
	DecodeWords(stored, raw, width, true)
	if !slices.Equal(plain, stored) {
		t.Fatalf("atomic-store decode %v differs from plain decode %v", stored, plain)
	}
	return plain
}

// checkRun encodes words behind a prefix and checks the codec's contract:
// the prefix is kept, the width is the fewest bits that hold the run's
// range, the run takes exactly 8 + ceil(width·n/8) bytes (none when
// empty), and it decodes to the words that went in.
func checkRun(t *testing.T, name string, words []int64) int {
	t.Helper()
	prefix := []byte{0xee, 0xdd}
	out, w := AppendWords(slices.Clone(prefix), words)
	width := int(w)
	if !slices.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("%s: the prefix became % x", name, out[:len(prefix)])
	}
	raw := out[len(prefix):]
	if len(words) == 0 {
		if width != 0 || len(raw) != 0 {
			t.Fatalf("%s: empty run is %d bytes at width %d, want none at 0", name, len(raw), width)
		}
		return width
	}
	lo, hi := slices.Min(words), slices.Max(words)
	span := uint64(hi) - uint64(lo)
	if width > 64 || (width < 64 && span>>width != 0) || (width > 0 && span>>(width-1) == 0) {
		t.Fatalf("%s: width %d for a range of %#x, want the fewest bits that hold it", name, width, span)
	}
	if want := 8 + (width*len(words)+7)/8; len(raw) != want {
		t.Fatalf("%s: %d bytes for %d words at width %d, want %d", name, len(raw), len(words), width, want)
	}
	if got := decodeBoth(t, raw, len(words), w); !slices.Equal(got, words) {
		t.Fatalf("%s: %v came back as %v at width %d", name, words, got, width)
	}
	return width
}

// TestWordsEveryWidth: a run whose range needs exactly w bits travels at
// width w, one more in the range takes w+1, and both round-trip — for
// every width 0 to 64, from bases on both sides of zero and at the ends of
// int64.
func TestWordsEveryWidth(t *testing.T) {
	for _, base := range []int64{0, -5, 1 << 40, math.MinInt64, math.MaxInt64 - 1<<20} {
		for w := 0; w <= 64; w++ {
			top := uint64(1)<<w - 1 // the widest range w bits hold
			lo := base
			switch {
			case w == 64:
				lo = math.MinInt64
			case base > math.MaxInt64-int64(top):
				lo = math.MaxInt64 - int64(top)
			}
			hi := int64(uint64(lo) + top)
			words := []int64{hi, lo, int64(uint64(lo) + top/2), lo, hi}
			if got := checkRun(t, "exact", words); got != w {
				t.Errorf("range %#x from %d: width %d, want %d", top, lo, got, w)
			}
			if w == 64 {
				continue
			}
			wider := []int64{lo - 1, hi}
			if hi < math.MaxInt64 {
				wider = []int64{lo, hi + 1}
			}
			if got := checkRun(t, "one more", wider); got != w+1 {
				t.Errorf("range %#x from %d: width %d, want %d", top+1, wider[0], got, w+1)
			}
		}
	}
}

// TestWordsEdgeRuns: the empty run is no bytes, a one-word run is its base
// alone, equal words cost nothing past the base, and MinInt64 with
// MaxInt64 — a range that wraps a signed subtraction — comes back exact.
func TestWordsEdgeRuns(t *testing.T) {
	checkRun(t, "empty", nil)
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if w := checkRun(t, "one word", []int64{v}); w != 0 {
			t.Errorf("one-word run %d at width %d, want 0", v, w)
		}
	}
	if w := checkRun(t, "all equal", []int64{7, 7, 7, 7, 7}); w != 0 {
		t.Errorf("five equal words at width %d, want 0", w)
	}
	if w := checkRun(t, "extremes", []int64{math.MaxInt64, math.MinInt64, 0, -1, math.MaxInt64}); w != 64 {
		t.Errorf("MinInt64..MaxInt64 at width %d, want 64", w)
	}
	labels := make([]int64, 1000) // a label run of 18-bit ids: 18 bits each
	for i := range labels {
		labels[i] = 1<<30 + int64(i*i)%(1<<18)
	}
	if w := checkRun(t, "labels", labels); w != 18 {
		t.Errorf("18-bit label run at width %d, want 18", w)
	}
}

// FuzzWords: any run of int64s round-trips at its minimal width in exactly
// 8 + ceil(w·n/8) bytes, decoding never reads past them, and the
// atomic-store path lands the same words. shift narrows the fuzzer's words
// so every width comes up.
func FuzzWords(f *testing.F) {
	seed := func(shift uint8, words ...uint64) {
		var b []byte
		for _, v := range words {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		f.Add(b, shift)
	}
	seed(0)
	seed(0, 42, 42, 42)                                           // width 0
	seed(56, 1<<63, 1<<56|0x7f, 3<<56)                            // width 8
	seed(40, 0xffff_ffff_ffff_ffff, 0x0123_4567_89ab_cdef, 1<<40) // width 17
	seed(0, 1<<63, 1<<63-1, 0, 12345)                             // width 64
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		words := make([]int64, len(data)/8)
		for i := range words {
			words[i] = int64(binary.LittleEndian.Uint64(data[8*i:])) >> (shift % 64)
		}
		checkRun(t, "fuzz", words)
	})
}
