package relaxd

import (
	"fmt"
	"sort"
	"sync"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
)

// ErrNoQuorumAck is the engine's lost-ack refusal: step 3 did not
// collect write-quorum acknowledgements, so the operation may be
// durable at some sites but is not reported complete.
var ErrNoQuorumAck = cluster.ErrNoQuorumAck

// ClientConfig configures a protocol client. Base, Respond, Quorums,
// and Transport are required; Fold supplies η.
type ClientConfig struct {
	// Transport reaches the replicas.
	Transport Transport
	// Quorums is the base quorum assignment gating Execute.
	Quorums quorum.Assignment
	// Base is the simple object automaton A.
	Base *automaton.Spec
	// Fold is the evaluation function η; nil defaults to δ* of Base.
	Fold *quorum.FoldEval
	// Respond chooses responses from views (step 2).
	Respond cluster.Responder
	// Audit, when set, receives every completed operation — the
	// attachment point for the online checker, same contract as
	// cluster.Config.Audit.
	Audit cluster.Audit
	// Spans, when set, receives one "relaxd.op" span per executed
	// operation with step-1/2/3 children, as cluster.Config.Spans does.
	Spans *trace.Tracer
	// Metrics, when set, receives the engine's "relaxd.execute.*"
	// counters and the "relaxd.reachable" histogram.
	Metrics *obs.Registry
}

// ClientHooks are test-only crash points between protocol steps.
type ClientHooks struct {
	// AfterStep1 runs after the view is assembled and interpreted,
	// before step 2.
	AfterStep1 func()
	// AfterStep2 runs after the response is chosen, before step 3.
	AfterStep2 func()
}

// Client runs the three-step quorum protocol — cluster.Engine, the
// same body the simulation runs — against live replicas. It is one
// protocol participant: not safe for concurrent use (run one Client per
// goroutine), exactly like a cluster.Client.
type Client struct {
	cfg   ClientConfig
	eng   *cluster.Engine
	sites *wireSites
	clock *quorum.Clock
	// Degrade enables graceful degradation: when the gate quorum is
	// unavailable the client proceeds with every responding site.
	Degrade bool
	// Hooks are test-only crash points. Set before use.
	Hooks ClientHooks
}

// NewClient builds a client whose Lamport clock is identified by
// clockSite (which must be globally unique across clients and greater
// than every site index, mirroring cluster.Client numbering).
func NewClient(cfg ClientConfig, clockSite int) *Client {
	if cfg.Transport == nil || cfg.Quorums == nil || cfg.Base == nil || cfg.Respond == nil {
		panic("relaxd: Transport, Quorums, Base, and Respond are required")
	}
	if cfg.Quorums.Sites() != cfg.Transport.Sites() {
		panic(fmt.Sprintf("relaxd: assignment over %d sites, transport has %d",
			cfg.Quorums.Sites(), cfg.Transport.Sites()))
	}
	eng := cluster.NewEngine("relaxd", cluster.Config{
		Base:    cfg.Base,
		Fold:    cfg.Fold,
		Respond: cfg.Respond,
		Audit:   cfg.Audit,
		Spans:   cfg.Spans,
		Metrics: cfg.Metrics,
	})
	sites := &wireSites{t: cfg.Transport, known: make([]siteKnowledge, cfg.Transport.Sites())}
	return &Client{cfg: cfg, eng: eng, sites: sites, clock: quorum.NewClock(clockSite)}
}

// Execute runs the protocol for one invocation under the base quorum
// assignment.
func (c *Client) Execute(inv history.Invocation) (history.Op, error) {
	return c.execute(inv, c.cfg.Quorums, "")
}

// ExecuteUnder runs the protocol gated by an alternative quorum
// assignment — one rung of a degradation ladder: the gate decides
// availability, the protocol itself uses every responding site.
func (c *Client) ExecuteUnder(inv history.Invocation, gate quorum.Assignment, label string) (history.Op, error) {
	if gate.Sites() != c.cfg.Transport.Sites() {
		panic(fmt.Sprintf("relaxd: gate assignment over %d sites, transport has %d",
			gate.Sites(), c.cfg.Transport.Sites()))
	}
	return c.execute(inv, gate, label)
}

// Ping probes one site's liveness. Over a PooledTransport, a ping
// within 8 requests (dialSkip) of a failed dial to the site does not
// probe: it fails with ErrDown without dialling.
func (c *Client) Ping(site int) error {
	resp, err := c.cfg.Transport.RoundTrip(site, Message{Type: MsgPing})
	if err != nil {
		return err
	}
	if resp.Type != MsgPong {
		return fmt.Errorf("%w: unexpected reply type %d", ErrFrame, resp.Type)
	}
	return nil
}

// execute runs the shared protocol engine over the transport.
func (c *Client) execute(inv history.Invocation, gate quorum.Assignment, label string) (history.Op, error) {
	return c.eng.Execute(c.sites, cluster.Exec{
		Inv:        inv,
		Gate:       gate,
		Label:      label,
		Degrade:    c.Degrade,
		Clock:      c.clock,
		AfterStep1: c.Hooks.AfterStep1,
		AfterStep2: c.Hooks.AfterStep2,
	})
}

// wireSites is the engine's site access over a Transport: step 1 asks
// every site for its log and step 3 sends the updated view to the
// step-1 responders, and in both a site counts only if its reply
// arrived and has the expected type — a dead site, a dropped
// connection, and a lost ack all look the same.
//
// Neither step moves a log the site already has. Per site the client
// keeps what it knows the site holds; step 1 names that knowledge as a
// frontier and receives what lies past it, step 3 sends the updated
// view minus it. A site the client knows nothing of (or whose
// knowledge a restart voided) is the zero-frontier case of the same
// exchange and moves the whole log, as every exchange once did.
type wireSites struct {
	t     Transport
	known []siteKnowledge // indexed by site
}

// siteKnowledge is a lower bound on one site's resident log: entries
// the site said it holds (a MsgLog) or acknowledged holding (a MsgAck),
// all under incarnation inc, during which a site's log only grows. It
// advances only from replies that arrived, never from a request sent.
type siteKnowledge struct {
	inc uint64
	log quorum.Log
}

func (w *wireSites) Read() []cluster.SiteLog {
	reqs := make([]Message, len(w.known))
	for site, k := range w.known {
		max, _ := k.log.MaxTS()
		reqs[site] = Message{Type: MsgGetLog, Inc: k.inc, Have: k.log.Len(), Max: max}
	}
	var out []cluster.SiteLog
	for site, reply := range fanout(w.t, nil, reqs) {
		k := &w.known[site]
		if reply.Type == MsgLog {
			if !reply.Delta || reply.Inc != k.inc {
				// The site could not vouch for the frontier: this is its
				// log from the start, under its current incarnation.
				*k = siteKnowledge{inc: reply.Inc}
			}
			if len(reply.Entries) > 0 {
				k.log = quorum.Merge(k.log, quorum.LogOf(reply.Entries...))
			}
			out = append(out, cluster.SiteLog{Site: site, Log: k.log})
		}
		if k.inc == 0 {
			// A site that names no incarnation (an ephemeral replica) makes
			// no promise to still hold this log at the next exchange.
			*k = siteKnowledge{}
		}
	}
	return out
}

func (w *wireSites) Record(sites []int, updated quorum.Log, _ trace.SpanID) []int {
	// Each step-1 responder gets the part of the view it is not known to
	// hold, tagged with the incarnation that knowledge is relative to.
	appends := make([]Message, len(w.known))
	for _, site := range sites {
		k := w.known[site]
		appends[site] = Message{Type: MsgAppend, Inc: k.inc, Entries: updated.Minus(k.log)}
	}
	acked, stale := w.ship(sites, appends)
	for _, site := range acked {
		if appends[site].Inc != 0 {
			w.known[site].log = updated
		}
	}
	if len(stale) == 0 {
		return acked
	}
	// A site that restarted since step 1 refused the delta. It gets the
	// whole view once, which claims nothing about what it holds; what
	// incarnation then acknowledges it is unknown, so step 1 starts over.
	for _, site := range stale {
		appends[site] = Message{Type: MsgAppend, Entries: updated.Entries()}
		w.known[site] = siteKnowledge{}
	}
	resent, _ := w.ship(stale, appends)
	acked = append(acked, resent...)
	sort.Ints(acked)
	return acked
}

// ship sends each listed site its MsgAppend, one request however long
// the view. A site that acknowledged it is acked, one that answered
// MsgStale is stale, and any other is in neither list.
func (w *wireSites) ship(sites []int, appends []Message) (acked, stale []int) {
	replies := fanout(w.t, sites, appends)
	for _, site := range sites {
		switch replies[site].Type {
		case MsgAck:
			acked = append(acked, site)
		case MsgStale:
			stale = append(stale, site)
		}
	}
	return acked, stale
}

// fanout round-trips reqs[site] to each listed site (nil means every
// site) and returns the replies indexed by site; a site that was not
// asked or gave no answer leaves the zero Message, whose Type matches
// no reply. Over a transport that advertises ConcurrentTransport the
// round trips run in parallel — the pooled transport multiplexes them
// onto one connection per site — while Local keeps the sequential
// site-order loop, so the in-process path stays deterministic. The
// reply slice is in site order either way, so the merged view (and
// everything downstream) is transport-independent.
func fanout(t Transport, sites []int, reqs []Message) []Message {
	n := t.Sites()
	out := make([]Message, n)
	if sites == nil {
		sites = make([]int, n)
		for i := range sites {
			sites[i] = i
		}
	}
	ask := func(site int) {
		// An error means the site gave no answer: it drops out of the step.
		if m, err := t.RoundTrip(site, reqs[site]); err == nil {
			out[site] = m
		}
	}
	ct, ok := t.(ConcurrentTransport)
	if !ok || !ct.Concurrent() {
		for _, site := range sites {
			ask(site)
		}
		return out
	}
	var wg sync.WaitGroup
	for _, site := range sites {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			ask(site)
		}(site)
	}
	wg.Wait()
	return out
}
