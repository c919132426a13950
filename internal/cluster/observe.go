package cluster

import (
	"sort"
	"strconv"
	"strings"

	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
)

// This file is the cluster's degradation-episode reporter: the piece
// that makes the relaxation lattice observable at runtime. Every
// client tracks the (behavior, constraint set) pair it last ran under;
// whenever an Execute sees a different pair — a site crashed out of
// the quorum, a partition healed, degradation kicked in — one
// "cluster.episode" event is recorded. The constraint set C is the set
// of operations whose quorums are currently reachable (evaluated over
// Assignment.Ops), and the behavior is φ(C): preferred-quorum service,
// the all-reachable fallback of Section 3.3, or outright rejection.
//
// All observation here happens under c.mu, at deterministic points of
// a deterministic protocol, so at a fixed fault schedule the journal
// is byte-stable.

// Behavior labels for episode events.
const (
	behaviorQuorum   = "preferred-quorum"  // quorum available, normal protocol
	behaviorDegraded = "all-reachable"     // degraded: proceed with every reachable site
	behaviorReject   = "reject"            // no quorum and degradation disabled
	behaviorLevel    = "level:"            // prefix: executed under a degradation-ladder rung
	behaviorDescend  = "adaptive-descend:" // prefix: controller moved down to this rung
	behaviorAscend   = "adaptive-ascend:"  // prefix: controller probed back up to this rung
)

// reachableBounds buckets the per-execute reachable-site counts.
var reachableBounds = []int64{0, 1, 2, 3, 4, 6, 8, 16, 32}

// attemptBounds buckets per-submission retry attempts.
var attemptBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16}

// constraintSet renders the currently satisfiable constraint set C:
// the sorted operation names whose quorums the reachable sites can
// assemble. An empty set renders as "∅". Caller holds mu.
func (c *Cluster) constraintSet(reachable []int) string {
	alive := make([]bool, len(c.logs))
	for _, s := range reachable {
		alive[s] = true
	}
	avail := quorum.AvailableOps(c.cfg.Quorums, alive)
	sort.Strings(avail)
	if len(avail) == 0 {
		return "∅"
	}
	return strings.Join(avail, ",")
}

// observeEpisode records a degradation-episode transition if the
// client's (behavior, constraint set) pair changed. Caller holds mu.
func (c *Cluster) observeEpisode(cl *Client, opName string, reachable []int, behavior string) {
	if c.cfg.Trace == nil {
		return
	}
	cset := c.constraintSet(reachable)
	key := behavior + "|" + cset
	if cl.lastEpisode == key {
		return
	}
	cl.lastEpisode = key
	c.cfg.Trace.Record(c.ltime.Tick(), "cluster.episode",
		obs.KV{K: "client", V: strconv.Itoa(cl.id)},
		obs.KV{K: "home", V: strconv.Itoa(cl.home)},
		obs.KV{K: "constraints", V: cset},
		obs.KV{K: "behavior", V: behavior},
		obs.KV{K: "op", V: opName},
		obs.KV{K: "reachable", V: strconv.Itoa(len(reachable))},
	)
}

// recordAdaptiveTransition records a controller level change as a
// cluster.episode event with the same attribute schema as protocol
// episodes, so one journal carries both the lattice moves the protocol
// observed and the moves the adaptive controller chose. Transitions
// are always recorded (no deduplication): each one is a deliberate
// move in the relaxation lattice.
func (c *Cluster) recordAdaptiveTransition(cl *Client, opName, behavior string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Trace == nil {
		return
	}
	reachable := c.reachableFrom(cl.home)
	if !c.up[cl.home] {
		reachable = nil
	}
	c.cfg.Trace.Record(c.ltime.Tick(), "cluster.episode",
		obs.KV{K: "client", V: strconv.Itoa(cl.id)},
		obs.KV{K: "home", V: strconv.Itoa(cl.home)},
		obs.KV{K: "constraints", V: c.constraintSet(reachable)},
		obs.KV{K: "behavior", V: behavior},
		obs.KV{K: "op", V: opName},
		obs.KV{K: "reachable", V: strconv.Itoa(len(reachable))},
	)
}

// recordFault records one fault/topology event and bumps its counter.
// Caller holds mu.
func (c *Cluster) recordFault(name string, attrs ...obs.KV) {
	c.cfg.Metrics.Counter("cluster.fault." + name).Add(1)
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(c.ltime.Tick(), "cluster."+name, attrs...)
	}
}
