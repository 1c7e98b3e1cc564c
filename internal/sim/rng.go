package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It avoids math/rand so that simulation streams are stable across Go
// releases and can be forked into independent substreams.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{state: uint64(seed)}
	// Warm up so small seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// NewStream returns a generator for the stream-th independent substream of
// seed. Replication harnesses key each worker's stream by its replication
// index, so a replication draws the same values no matter which worker runs
// it or how many workers exist — the basis of the deterministic-merge
// guarantee.
func NewStream(seed int64, stream uint64) *RNG {
	r := &RNG{state: uint64(seed) ^ (stream+1)*0x9e3779b97f4a7c15}
	// Warm up so adjacent (seed, stream) pairs diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Fork returns an independent substream derived from the current state.
// Forked streams do not perturb the parent beyond the single draw used to
// derive them, which keeps experiment components independent.
func (r *RNG) Fork() *RNG {
	child := &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
	child.Uint64()
	return child
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It returns 0 when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exponential returns an exponentially distributed value with the given
// mean. It returns 0 when mean <= 0.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
