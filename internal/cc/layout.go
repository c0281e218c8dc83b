package cc

import (
	"math"
	"math/bits"
)

// spread is the label layout cc.Coalesced and cc.SpanningTree keep D (and
// SpanningTree's Hook) in: vertex v's label lives at position pos(v).
// Min-label CC converges on the low ids, which the block partition gives
// to thread 0; pos deals consecutive ids over the whole array instead.
// Labels stay vertex ids, so hooks, rounds and answers never see it.
//
// With half the largest power of two <= n (b bits), an id v < half is
// scrambled within [0, half): its low t bits, reversed, pick one of 2^t
// chunks — the van der Corput order, so any k smallest ids sit on a grid
// of spacing about half/2k — and its high b-t bits, xored with its low b-t
// bits reversed, the offset in the chunk. The xor keeps the low ids'
// positions distinct in their low bits, which the collectives' request
// combining (a direct-mapped table keyed by an index's low bits) needs.
// The scramble is stretched over [0, n) by n/half, and the ids from half
// up fill the positions the stretch skips, in order.
//
// pos depends on n only — an eviction restores a snapshot into the
// re-blocked array position for position — and pos(0) = 0, so offload's
// pinned index is still vertex 0. Neither direction divides: pos is a
// table lookup, a shift and an xor, plus a multiply when n is not a power
// of two, and the divisions by n - half and by n go through precomputed
// reciprocals.
type spread struct {
	n, half, rest uint64
	b, t          uint   // log2(half); the chunk bits, max(ceil(b/2), min(b, 7))
	recipN        uint64 // MaxUint64/n
	recipRest     uint64 // MaxUint64/rest; 0 when n is a power of two
	// chunk[r] is the scramble of id r < 2^t: r reversed in the top t of
	// b bits, r's low b-t bits reversed below them.
	chunk []uint32
}

func newSpread(n int64) *spread {
	if n > 1<<31 { // vertex ids are int32; every product below stays under 2^63
		panic("cc: the label layout needs n <= 2^31")
	}
	s := &spread{n: uint64(n)}
	if n == 0 {
		return s // nothing to place
	}
	s.b = uint(bits.Len64(uint64(n))) - 1
	s.half = 1 << s.b
	s.rest = s.n - s.half
	s.t = max((s.b+1)/2, min(s.b, 7))
	s.recipN = math.MaxUint64 / s.n
	if s.rest > 0 {
		s.recipRest = math.MaxUint64 / s.rest
	}
	s.chunk = make([]uint32, 1<<s.t)
	for r := range s.chunk {
		s.chunk[r] = uint32(rev(uint64(r), s.t)<<(s.b-s.t) | rev(uint64(r), s.b-s.t))
	}
	return s
}

// rev reverses the low w bits of y.
func rev(y uint64, w uint) uint64 { return bits.Reverse64(y<<(64-w)) & (1<<w - 1) }

// div is floor(x/d) for x < 2^63 through m = MaxUint64/d: the high word of
// x·m is that quotient or one less.
func div(x, d, m uint64) uint64 {
	q, _ := bits.Mul64(x, m)
	if x-q*d >= d {
		q++
	}
	return q
}

// pos is the position of vertex v's label. An id from half up takes the
// (v-half)-th position the stretch x -> x + floor(x·rest/half) skips: one
// after each x whose floor(x·rest/half) steps up.
func (s *spread) pos(v int64) int64 {
	x := uint64(v)
	switch {
	case x >= s.half:
		j := x - s.half
		return int64(div((j+1)<<s.b+s.rest-1, s.rest, s.recipRest) + j)
	case s.rest == 0:
		return int64(s.scramble(x))
	}
	return int64(s.scramble(x) * s.n >> s.b)
}

// scramble is the chunk lookup of x < half.
func (s *spread) scramble(x uint64) uint64 {
	return uint64(s.chunk[x&(1<<s.t-1)]) ^ x>>s.t
}

// inv is the vertex whose label lives at position p: p is hit by the
// stretch from x = ceil(p·half/n) if x·n/half < p+1, and skipped otherwise,
// p - x positions having been skipped before it. A hit x unscrambles from
// its top t bits, which are the id's low t bits reversed.
func (s *spread) inv(p int64) int64 {
	x := div(uint64(p)<<s.b+s.n-1, s.n, s.recipN)
	if x*s.n >= uint64(p+1)<<s.b {
		return int64(s.half + uint64(p) - x)
	}
	r := rev(x>>(s.b-s.t), s.t)
	q := (x ^ rev(r, s.b-s.t)) & (1<<(s.b-s.t) - 1)
	return int64(q<<s.t | r)
}

// place is the layout as the collectives apply it (collective.Layout),
// in place: positions are below n <= 2^31, so they fit the int32 indices.
// When n is a power of two pos is the scramble alone, inlined here.
func (s *spread) place(ix []int32) {
	if s.rest != 0 {
		for i, v := range ix {
			ix[i] = int32(s.pos(int64(v)))
		}
		return
	}
	for i, v := range ix {
		ix[i] = int32(s.scramble(uint64(v)))
	}
}

// fill writes the identity labeling laid out at raw's positions [lo, hi).
func (s *spread) fill(raw []int64, lo, hi int64) {
	for p := lo; p < hi; p++ {
		raw[p] = s.inv(p)
	}
}

// labels reads the result back in vertex order.
func (s *spread) labels(raw []int64) []int64 {
	out := make([]int64, len(raw))
	for v := range out {
		out[v] = raw[s.pos(int64(v))]
	}
	return out
}
