package sim

import (
	"math"
	"math/rand"
)

// RNG is the deterministic random source used by every stochastic model in
// the library. It wraps math/rand with the distributions the simulator
// needs (exponential, Poisson, normal, Bernoulli) so that call sites
// stay readable and every draw is attributable to a single seeded
// stream.
type RNG struct {
	r *rand.Rand
}

// NewRNG builds a source seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream. Substrates that must not
// perturb each other's draw sequences (e.g. workload vs. failure
// injection) each take a fork keyed by a distinct label hash.
func (g *RNG) Fork(label string) *RNG {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(g.r.Int63() ^ int64(h&math.MaxInt64))
}

// Float64 draws uniformly from [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn draws uniformly from [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 draws a non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Exp draws from an exponential distribution with the given rate (>0).
func (g *RNG) Exp(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Normal draws from N(mean, sd²).
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// Poisson draws from a Poisson distribution with the given mean. For small
// means it uses Knuth's product method; for large means a normal
// approximation with continuity correction keeps it O(1).
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		k := math.Round(g.Normal(mean, math.Sqrt(mean)))
		if k < 0 {
			return 0
		}
		return int(k)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }
