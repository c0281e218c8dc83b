// Package xrand provides a small, fast, deterministic pseudo-random number
// generator with splittable streams.
//
// The paper's graph generators require that the generated graph be identical
// regardless of how many threads participate in generation ("we also require
// the permutations generated with different number of threads be identical",
// §III). Stream splitting gives each chunk of work its own independent
// generator derived only from (seed, chunk index), never from thread
// identity, which guarantees that property.
//
// The core generator is SplitMix64 for seeding and xoshiro256** for the
// stream, both public-domain algorithms with excellent statistical quality
// and a 2^256-1 period.
package xrand

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine its own Rand via Split.
type Rand struct {
	s0, s1, s2, s3 uint64
	// base is the seed material captured at creation; Split derives
	// children from it so that splitting is independent of prior draws.
	base uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// to expand seeds into full generator state so that even adjacent seeds
// produce uncorrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{base: seed}
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	return r
}

// Split returns an independent generator identified by (the receiver's seed
// material, stream). Calling Split with the same stream value always yields
// the same generator regardless of how much the receiver has been used:
// splitting derives only from the seed material captured at creation, never
// from drawn state. Splits nest: r.Split(a).Split(b) is itself stable.
func (r *Rand) Split(stream uint64) *Rand {
	x := r.base ^ 0xa5a5a5a55a5a5a5a
	h := splitmix64(&x)
	x = h ^ (stream+1)*0x9e3779b97f4a7c15
	return New(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Int64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated with the Fisher–Yates shuffle.
func (r *Rand) Perm(n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	r.shuffleInt64(p)
	return p
}

// shuffleInt64 permutes s uniformly at random in place.
func (r *Rand) shuffleInt64(s []int64) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
