// Package rng provides named, deterministic random-number streams for
// simulation experiments. It mirrors OMNeT++'s per-module RNG mapping:
// every consumer (PHY decider, MAC backoff, workload jitter, ...) draws
// from its own stream, so adding a new random consumer never perturbs the
// draws seen by existing ones. That stream independence is what keeps a
// ComFASE golden run comparable with its attack runs.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps the stdlib PCG
// generator with the handful of distributions the simulator needs.
type Source struct {
	r   *rand.Rand
	pcg *rand.PCG
}

// streamState hashes a stream name to the second PCG seed word.
func streamState(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// New returns a stream derived from a campaign seed and a stream name.
// The same (seed, name) pair always yields the same sequence; distinct
// names yield statistically independent sequences.
func New(seed uint64, name string) *Source {
	return NewFromState(seed, streamState(name))
}

// NewFromState returns a stream from two raw 64-bit state words. It is
// used by Split for hierarchical stream derivation.
func NewFromState(a, b uint64) *Source {
	pcg := rand.NewPCG(a, b)
	return &Source{r: rand.New(pcg), pcg: pcg}
}

// Reseed rewinds the stream to the state New(seed, name) would start
// from, reusing the generator allocation. It is the reset hook for
// experiment-workspace reuse: a reseeded stream replays exactly the draw
// sequence of a freshly constructed one.
func (s *Source) Reseed(seed uint64, name string) {
	s.pcg.Seed(seed, streamState(name))
}

// StateSize is the serialised size of a Source's generator state (the
// stdlib PCG binary encoding).
const StateSize = 20

// State is a restorable snapshot of a Source's position in its stream.
type State [StateSize]byte

// SaveState captures the stream position. It is the checkpoint hook of
// prefix-forked campaigns: LoadState rewinds the stream so the restored
// run replays exactly the draw sequence the snapshot-time run would.
func (s *Source) SaveState(into *State) error {
	b, err := s.pcg.MarshalBinary()
	if err != nil {
		return err
	}
	if len(b) != StateSize {
		return fmt.Errorf("rng: unexpected PCG state size %d", len(b))
	}
	copy(into[:], b)
	return nil
}

// LoadState rewinds the stream to a position captured by SaveState.
// It does not allocate, so the restore path of a checkpointed campaign
// stays allocation-free.
func (s *Source) LoadState(from *State) error {
	return s.pcg.UnmarshalBinary(from[:])
}

// Split derives an independent child stream identified by name.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return NewFromState(s.r.Uint64(), h.Sum64())
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform sample in [lo, hi). The float64 conversion
// rounds the product before the add, so no architecture fuses the two
// into one multiply-add (scripts/fma-audit.sh).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.r.Float64())
}

// IntN returns a uniform integer in [0, n). n must be positive.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Normal returns a normally distributed sample. As in Uniform, the
// product rounds before the add.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*s.r.NormFloat64())
}

// Exponential returns an exponentially distributed sample with the given
// mean (not rate).
func (s *Source) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Rayleigh returns a Rayleigh-distributed sample with scale sigma. Used
// by the fading channel models.
func (s *Source) Rayleigh(sigma float64) float64 {
	u := s.r.Float64()
	// Guard against log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }
