package core

// xrand is the learner's exploration PRNG: xoroshiro128+ with splitmix64
// seeding. It exists instead of math/rand for one reason — its full state is
// two exportable words, so a checkpoint can persist the generator *exactly*
// and a restored learner continues the identical random stream. (math/rand
// hides its state, which forced the old checkpoints to reseed and made a
// save/resume run diverge from an uninterrupted one; the differential suite
// in internal/invariant asserts the two are now byte-identical.)
//
// It is not a cryptographic generator and is not safe for concurrent use —
// exactly the contract the single-goroutine decide path needs.
type xrand struct {
	s0, s1 uint64
}

// splitmix64 advances z and returns the next splitmix64 output — the
// recommended seeding generator for the xoroshiro family.
func splitmix64(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	r := *z
	r = (r ^ (r >> 30)) * 0xbf58476d1ce4e5b9
	r = (r ^ (r >> 27)) * 0x94d049bb133111eb
	return r ^ (r >> 31)
}

// newXrand returns a generator seeded deterministically from seed: two
// splitmix64 outputs, which setState guards against the all-zero state.
func newXrand(seed int64) *xrand {
	z := uint64(seed)
	x := &xrand{}
	x.setState(splitmix64(&z), splitmix64(&z))
	return x
}

// state exports the generator state for persistence.
func (x *xrand) state() (s0, s1 uint64) { return x.s0, x.s1 }

// setState restores a state captured with state. A degenerate all-zero
// state — the one fixed point of xoroshiro128+, possible only in a
// hand-crafted checkpoint — is nudged off it so the generator keeps
// producing.
func (x *xrand) setState(s0, s1 uint64) {
	if s0|s1 == 0 {
		s1 = 0x9e3779b97f4a7c15
	}
	x.s0, x.s1 = s0, s1
}

// Uint64 returns the next 64 random bits (xoroshiro128+).
func (x *xrand) Uint64() uint64 {
	a, b := x.s0, x.s1
	r := a + b
	b ^= a
	x.s0 = (a<<55 | a>>9) ^ b ^ (b << 14)
	x.s1 = b<<36 | b>>28
	return r
}

// Int63 returns a uniform value in [0, 1<<63).
func (x *xrand) Int63() int64 { return int64(x.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *xrand) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0. Rejection
// sampling keeps the draw exactly uniform (no modulo bias).
func (x *xrand) Intn(n int) int {
	if n <= 0 {
		panic("core: Intn with non-positive n")
	}
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		if v := x.Uint64(); v < limit {
			return int(v % max)
		}
	}
}
