// Package cluster simulates a replicated object managed by quorum
// consensus (Section 3.1): a set of sites holding timestamped logs, a
// partitionable network, site crashes and recoveries, and clients that
// execute operations with the three-step protocol — merge logs from an
// initial quorum into a view, choose a response consistent with the
// view, and record the new entry at a final quorum.
//
// A client in graceful-degradation mode falls back to whatever sites it
// can reach when the preferred quorum is unavailable; the histories it
// then produces land lower in the relaxation lattice, and the lattice
// machinery (lattice.Relaxation.WeakestAccepting) identifies exactly
// how far they degraded.
package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/value"
)

// Responder chooses the response to an invocation given the view's
// value, completing step 2 of the protocol. ok=false means no response
// is consistent with the view.
type Responder func(s value.Value, inv history.Invocation) (history.Op, bool)

// Config configures a simulated cluster.
type Config struct {
	// Sites is the number of replica sites.
	Sites int
	// Quorums assigns quorums to operations (weighted voting, explicit
	// quorum structures, or any other Assignment).
	Quorums quorum.Assignment
	// Base is the simple object automaton A whose pre/postconditions
	// responses must satisfy.
	Base *automaton.Spec
	// Fold is the evaluation function η used to interpret views; nil
	// defaults to δ* of Base. The cluster evaluates views directly from
	// their log entries, without materializing a history per operation.
	Fold *quorum.FoldEval
	// Respond chooses responses from views.
	Respond Responder
	// Metrics, when set, receives quorum attempt/failure counters,
	// fault-injection counters, and reachability histograms. All updates
	// are commutative, so snapshots are deterministic regardless of
	// client scheduling.
	Metrics *obs.Registry
	// Trace, when set, receives degradation-episode events: one event
	// each time the cluster's (mode, constraint set) pair changes, i.e.
	// each time the system moves in the relaxation lattice. Events are
	// stamped by a cluster-owned logical clock that ticks once per
	// recorded event.
	Trace *obs.Recorder
	// Audit, when set, receives every completed operation on the
	// observation path (and, if it implements ClaimObserver, every
	// adaptive degradation claim) — the attachment point for online
	// relaxation checking. See the Audit interface for the contract.
	Audit Audit
	// Spans, when set, receives causal spans from the protocol: one
	// span per executed operation with step-1/2/3 children (view
	// assembly, response choice, final-quorum record), happens-before
	// links from each step-1 view to the spans that last wrote the site
	// logs it merged, and — for adaptive clients — submit, attempt,
	// backoff, descend, probe, and ascend spans nested under the
	// operation that triggered them. Nil disables span tracing
	// entirely.
	Spans *trace.Tracer
}

// Cluster is the simulated replicated object.
type Cluster struct {
	mu     sync.Mutex
	cfg    Config       // immutable after New
	eng    *Engine      // guarded by mu; the protocol, the observed history, the view cache
	logs   []quorum.Log // guarded by mu
	up     []bool       // guarded by mu
	comp   []int        // guarded by mu; network component per site; equal = mutually reachable
	nextID int          // guarded by mu
	ltime  obs.Logical  // trace clock; ticked only under mu
	// lastWrite is, per site, the step-3 span that last recorded an
	// entry on that site's log — the happens-before link targets of the
	// next step-1 view that merges the log. All zeros when Spans is nil.
	lastWrite []trace.SpanID // guarded by mu
}

// New builds a cluster with all sites up and fully connected. It
// panics on invalid configuration (programming errors).
func New(cfg Config) *Cluster {
	if cfg.Sites <= 0 {
		panic(fmt.Sprintf("cluster: %d sites", cfg.Sites))
	}
	if cfg.Quorums == nil || cfg.Base == nil || cfg.Respond == nil {
		panic("cluster: Quorums, Base, and Respond are required")
	}
	if cfg.Quorums.Sites() != cfg.Sites {
		panic(fmt.Sprintf("cluster: assignment over %d sites, cluster has %d", cfg.Quorums.Sites(), cfg.Sites))
	}
	c := &Cluster{
		cfg:       cfg,
		eng:       NewEngine("cluster", cfg),
		logs:      make([]quorum.Log, cfg.Sites),
		up:        make([]bool, cfg.Sites),
		comp:      make([]int, cfg.Sites),
		lastWrite: make([]trace.SpanID, cfg.Sites),
	}
	for i := range c.up {
		c.up[i] = true
	}
	return c
}

// Crash takes a site down; its log survives for later recovery.
func (c *Cluster) Crash(site int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.up[site] = false
	c.recordFault("crash", obs.KV{K: "site", V: strconv.Itoa(site)})
}

// Restore brings a crashed site back with its log intact.
func (c *Cluster) Restore(site int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.up[site] = true
	c.recordFault("restore", obs.KV{K: "site", V: strconv.Itoa(site)})
}

// Partition splits the network into the given groups of sites; sites
// not listed form one extra component. Clients are attached to sites
// and can reach exactly the sites in their component.
func (c *Cluster) Partition(groups ...[]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.comp {
		c.comp[i] = 0
	}
	for g, group := range groups {
		for _, s := range group {
			c.comp[s] = g + 1
		}
	}
	parts := make([]string, len(groups))
	for i, group := range groups {
		elems := make([]string, len(group))
		for j, s := range group {
			elems[j] = strconv.Itoa(s)
		}
		parts[i] = "{" + strings.Join(elems, ",") + "}"
	}
	c.recordFault("partition", obs.KV{K: "groups", V: strings.Join(parts, " ")})
}

// Heal reconnects the whole network.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.comp {
		c.comp[i] = 0
	}
	c.recordFault("heal")
}

// reachableFrom returns the up sites in the same network component as
// home (including home itself if up). Caller holds mu.
func (c *Cluster) reachableFrom(home int) []int {
	var out []int
	for i := range c.logs {
		if c.up[i] && c.comp[i] == c.comp[home] {
			out = append(out, i)
		}
	}
	return out
}

// Gossip pushes every site's log to every site reachable from it —
// the asynchronous background propagation of Sections 3 and 3.4.
func (c *Cluster) Gossip() {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := make([]quorum.Log, len(c.logs))
	for i := range c.logs {
		if !c.up[i] {
			merged[i] = c.logs[i]
			continue
		}
		logs := []quorum.Log{c.logs[i]}
		for j := range c.logs {
			if j != i && c.up[j] && c.comp[j] == c.comp[i] {
				logs = append(logs, c.logs[j])
			}
		}
		merged[i] = quorum.Merge(logs...)
	}
	c.logs = merged
	c.cfg.Metrics.Counter("cluster.gossip").Add(1)
}

// PropagateFrom pushes one site's log to its reachable peers.
func (c *Cluster) PropagateFrom(site int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up[site] {
		return
	}
	for j := range c.logs {
		if j != site && c.up[j] && c.comp[j] == c.comp[site] {
			c.logs[j] = quorum.Merge(c.logs[j], c.logs[site])
		}
	}
}

// Observed returns the global history of completed operations in
// real-time completion order — the history whose lattice position the
// degradation audit inspects.
func (c *Cluster) Observed() history.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Observed()
}

// MergedLog returns the union of all resident logs (the object's "true"
// current state, were every update propagated).
func (c *Cluster) MergedLog() quorum.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return quorum.Merge(c.logs...)
}

// SiteLog returns a copy of one site's resident log.
//
//lint:ignore unreached differential oracle: relaxd's tests compare each replica's log with the model's
func (c *Cluster) SiteLog(site int) quorum.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logs[site]
}

// LoadSiteLog replaces one site's resident log — the oracle hook for
// seeding a deterministic cluster from recovered durable state
// (internal/relaxd): load each restarted replica's log, and the model
// cluster continues executing from exactly the state the real service
// landed on, so the checker can certify the recovery point and
// everything after it. The view-evaluation cache is dropped: cached
// lineages may no longer be prefixes of any resident log.
//
//lint:ignore unreached differential oracle: relaxd's crash and ship tests seed the model from recovered state
func (c *Cluster) LoadSiteLog(site int, l quorum.Log) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs[site] = quorum.Merge(l) // Merge of one shares the immutable log
	c.eng.dropViewCache()
}

// Client is a protocol participant attached (by locality) to a home
// site. Each client owns a Lamport clock with a globally unique site
// identifier.
type Client struct {
	c     *Cluster
	clock *quorum.Clock
	home  int
	id    int // globally unique client identifier (for trace events)
	// spanAttrs identify the client on its operation spans.
	spanAttrs []obs.KV
	// lastEpisode is the client's current (behavior, constraint set)
	// pair; read and written only under the cluster's mu.
	lastEpisode string
	// Degrade enables graceful degradation: when the preferred quorum
	// is unavailable the client proceeds with every reachable site
	// (Section 3.3, "permitting the dispatchers and drivers to enqueue
	// and dequeue requests from all available sites").
	Degrade bool
}

// Client creates a client homed at the given site. Client clock
// identifiers start above the site identifiers so timestamps are
// globally unique.
func (c *Cluster) Client(home int) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if home < 0 || home >= len(c.logs) {
		panic(fmt.Sprintf("cluster: home site %d out of range", home))
	}
	c.nextID++
	return &Client{
		c:     c,
		clock: quorum.NewClock(len(c.logs) + c.nextID),
		home:  home,
		id:    c.nextID,
		spanAttrs: []obs.KV{
			{K: "client", V: strconv.Itoa(c.nextID)},
			{K: "home", V: strconv.Itoa(home)},
		},
	}
}

// Execute runs the three-step quorum-consensus protocol for one
// invocation. On success it returns the completed operation execution.
func (cl *Client) Execute(inv history.Invocation) (history.Op, error) {
	return cl.c.execute(cl, inv, cl.c.cfg.Quorums, "", nil)
}

// ExecuteUnderSpan is ExecuteUnder with an explicit parent span: the
// operation's span tree nests under parent in the causal trace. A nil
// parent roots the operation span at the configured tracer.
func (cl *Client) ExecuteUnderSpan(inv history.Invocation, gate quorum.Assignment, label string, parent *trace.SpanRef) (history.Op, error) {
	if gate.Sites() != len(cl.c.logs) {
		panic(fmt.Sprintf("cluster: gate assignment over %d sites, cluster has %d", gate.Sites(), len(cl.c.logs)))
	}
	return cl.c.execute(cl, inv, gate, label, parent)
}

// execute runs the shared protocol engine over the cluster's in-memory
// sites, atomically: the whole operation happens under mu.
func (c *Cluster) execute(cl *Client, inv history.Invocation, gate quorum.Assignment, label string, parent *trace.SpanRef) (history.Op, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Execute(simSites{c, cl.home}, Exec{
		Inv:     inv,
		Gate:    gate,
		Label:   label,
		Degrade: cl.Degrade,
		Clock:   cl.clock,
		Parent:  parent,
		Attrs:   cl.spanAttrs,
		Episode: func(reachable []int, behavior string) {
			c.observeEpisode(cl, inv.Name, reachable, behavior)
		},
	})
}

// simSites is the engine's site access for a client homed at home: the
// up sites in home's network component answer step 1 with their
// resident logs, and every one of them records step 3 — the simulation
// loses neither answers nor acks, only whole sites. Methods run inside
// execute, under c.mu.
type simSites struct {
	c    *Cluster
	home int
}

func (a simSites) Read() []SiteLog {
	c := a.c
	if !c.up[a.home] {
		return nil // a client whose site is down reaches nothing
	}
	reachable := c.reachableFrom(a.home)
	out := make([]SiteLog, len(reachable))
	for i, s := range reachable {
		out[i] = SiteLog{Site: s, Log: c.logs[s], LastWrite: c.lastWrite[s]}
	}
	return out
}

func (a simSites) Record(sites []int, updated quorum.Log, by trace.SpanID) []int {
	for _, s := range sites {
		a.c.logs[s] = quorum.Merge(a.c.logs[s], updated)
		a.c.lastWrite[s] = by
	}
	return sites
}

// Probe reports whether a client homed at home could currently
// assemble every quorum of gate — a read-only availability probe.
// Nothing is executed, logged, or recorded: probing is how adaptive
// clients test a stronger rung of the degradation ladder without
// risking an observable failure.
func (c *Cluster) Probe(home int, gate quorum.Assignment) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up[home] {
		return false
	}
	alive := make([]bool, len(c.logs))
	for _, s := range c.reachableFrom(home) {
		alive[s] = true
	}
	return quorum.FullyAvailable(gate, alive)
}
