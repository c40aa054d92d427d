package sim

// RNG is a small deterministic pseudo-random generator (xorshift64*), used
// instead of math/rand so simulations are reproducible across Go versions
// and require no global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped to a fixed
// nonzero constant, since xorshift requires a nonzero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}
