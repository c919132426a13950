package automaton

import (
	"sync/atomic"

	"relaxlattice/internal/obs"
)

// The exploration engine reports into two package-level registries with
// deliberately different determinism guarantees:
//
//   - ObserveEngine installs the *deterministic* registry. Everything
//     recorded there is computed at the per-depth merge point of
//     expandClasses, which is identical for every GOMAXPROCS (the
//     engine's sharded expansion reproduces the serial discovery order
//     exactly), so the final snapshot is byte-stable across worker
//     counts. These metrics go into `relaxctl run -metrics`.
//   - ObserveEngineRuntime installs the *runtime* registry for
//     scheduling-dependent quantities: shard sizes/imbalance (they
//     depend on the worker count by construction). These are published
//     via expvar under -pprof and must never be written to the
//     deterministic snapshot.
//
// Both registries are held in atomic pointers so installation needs no
// lock and uninstalled observation costs one atomic load per depth.
// The obs instruments are nil-safe, so no call site branches.

var (
	engineObs atomic.Pointer[obs.Registry]
	engineRT  atomic.Pointer[obs.Registry]
)

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

// ObserveEngineRuntime installs (or uninstalls) the runtime registry
// for scheduling-dependent engine metrics:
//
//	engine.shard.expands      counter: sharded depth expansions
//	engine.shard.workers      gauge (max): widest worker fan-out used
//	engine.shard.imbalance    histogram: per-expansion max−min chunk output sizes
func ObserveEngineRuntime(r *obs.Registry) {
	engineRT.Store(r)
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

// observeShards records the runtime-only shard shape of one parallel
// expansion: chunk output sizes depend on how the frontier divided, so
// this never feeds the deterministic snapshot.
func observeShards(parts [][]childUpdate) {
	r := engineRT.Load()
	if r == nil {
		return
	}
	minSz, maxSz := len(parts[0]), len(parts[0])
	for _, p := range parts[1:] {
		if len(p) < minSz {
			minSz = len(p)
		}
		if len(p) > maxSz {
			maxSz = len(p)
		}
	}
	r.Counter("engine.shard.expands").Add(1)
	r.Gauge("engine.shard.workers").Max(int64(len(parts)))
	r.Histogram("engine.shard.imbalance", frontierBounds).Observe(int64(maxSz - minSz))
}
