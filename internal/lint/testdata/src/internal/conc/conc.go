// Package conc mirrors the repository's runtime concurrency layer
// (internal/conc): lock-free relaxed structures that are *clients* of
// the model layer, certified against it after the fact, rather than
// part of it. The determinism rule families (det-time, det-rand,
// det-maporder) are scoped to Config.ModelPaths and
// deliberately exclude this path — a relaxed queue's schedule is
// inherently nondeterministic, its sampling state is seeded per shard
// only to make single-threaded witness schedules reproducible, and its
// actual guarantees are established by relaxcheck certifying recorded
// histories, not by pinning the runtime to a virtual clock. Every
// would-be determinism finding below must therefore stay silent.
//
// Lock discipline is not path-scoped: the leaking lock at the bottom
// must keep firing even here.
package conc

import (
	"math/rand"
	"sync"
	"time"
)

// Shard is one slice of a relaxed structure with private sampling
// state. The seeded constructor is the sanctioned pattern everywhere;
// storing a draw from the *global* RNG in a field (sampleSkew) is a
// det-rand finding in a model-layer package and legal here.
type Shard struct {
	rng        *rand.Rand
	sampleSkew int
	startNanos int64

	mu sync.Mutex
	n  int
}

// NewShard seeds the shard's sampling state from its index (for
// reproducible single-threaded schedules) and stamps wall-clock and
// global-RNG values into fields — both exempt outside ModelPaths.
func NewShard(index int64) *Shard {
	return &Shard{
		rng:        rand.New(rand.NewSource(index)),
		sampleSkew: rand.Intn(64),
		startNanos: time.Now().UnixNano(),
	}
}

// Sample draws from the shard-private generator: legal in every layer.
func (s *Shard) Sample(n int) int { return s.rng.Intn(n) }

// Age reads the wall clock: a det-time finding in a model-layer
// package, exempt here.
func (s *Shard) Age() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.startNanos)
}

// Leak holds the shard lock past return: lock-balance applies to the
// concurrency layer like everywhere else and must flag this.
func (s *Shard) Leak() int {
	s.mu.Lock()
	return s.n
}
