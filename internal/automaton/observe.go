package automaton

import (
	"sync/atomic"

	"relaxlattice/internal/obs"
)

// The exploration engine reports into one package-level deterministic
// registry, installed by ObserveEngine. Everything recorded there is
// computed at the per-depth merge point of expandClasses, which runs
// serially in discovery order, so the final snapshot is byte-stable at
// any GOMAXPROCS. These metrics go into `relaxctl run -metrics`.
//
// The registry is held in an atomic pointer so installation needs no
// lock and uninstalled observation costs one atomic load per depth.
// The obs instruments are nil-safe, so no call site branches.

var engineObs atomic.Pointer[obs.Registry]

// frontierBounds buckets per-depth class counts; the last bucket is
// open (overflow).
var frontierBounds = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// ObserveEngine installs (or, with nil, uninstalls) the deterministic
// metrics registry for the exploration engine. Recorded there:
//
//	engine.expand.updates       counter: live children emitted across all depths
//	engine.expand.dedup_hits    counter: children merged into an existing class
//	engine.expand.depths        counter: depth expansions performed
//	engine.frontier.peak_classes gauge (max): largest frontier seen
//	engine.frontier.classes     histogram: per-depth frontier class counts
func ObserveEngine(r *obs.Registry) {
	engineObs.Store(r)
}

// observeExpand records the deterministic per-depth merge outcome.
func observeExpand(updates, classes int) {
	r := engineObs.Load()
	if r == nil {
		return
	}
	r.Counter("engine.expand.updates").Add(uint64(updates))
	r.Counter("engine.expand.dedup_hits").Add(uint64(updates - classes))
	r.Counter("engine.expand.depths").Add(1)
	r.Gauge("engine.frontier.peak_classes").Max(int64(classes))
	r.Histogram("engine.frontier.classes", frontierBounds).Observe(int64(classes))
}
