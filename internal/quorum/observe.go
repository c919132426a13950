package quorum

import (
	"sync/atomic"

	"relaxlattice/internal/obs"
)

// viewRT is the runtime-only registry for the compiled automaton's
// transposition cache. Hit/miss splits are scheduling-dependent (two
// goroutines sharing an automaton can race to compute the same
// transition), so
// they are published via expvar under -pprof and never written to the
// deterministic snapshot.
var viewRT atomic.Pointer[obs.Registry]

// ObserveRuntime installs (or, with nil, uninstalls) the runtime
// registry for quorum-layer caches:
//
//	quorum.viewcache.hits    counter: compiled-automaton transition cache hits
//	quorum.viewcache.misses  counter: compiled-automaton transition cache misses
func ObserveRuntime(r *obs.Registry) {
	viewRT.Store(r)
}

// viewCacheCounters resolves the compiled-automaton cache counters
// (nil registry → nil counters → no-op adds).
func viewCacheCounters() (hits, misses *obs.Counter) {
	r := viewRT.Load()
	return r.Counter("quorum.viewcache.hits"), r.Counter("quorum.viewcache.misses")
}
