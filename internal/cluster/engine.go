package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/value"
)

// ErrUnavailable is returned when a client cannot assemble the quorums
// its operation requires (and degradation is not enabled).
var ErrUnavailable = errors.New("cluster: quorum unavailable")

// ErrNoResponse is returned when no response to the invocation is
// consistent with the view (e.g. dequeuing from an apparently empty
// queue).
var ErrNoResponse = errors.New("cluster: no response consistent with view")

// ErrUninterpretable is returned when η assigns no state to the merged
// view, so no response can be chosen from it.
var ErrUninterpretable = errors.New("cluster: view not interpretable by η")

// ErrNoQuorumAck is returned when step 3 could not collect write-quorum
// acknowledgements: the operation may be recorded at some sites but the
// client cannot claim it completed. The entry is NOT reported to the
// audit — a later view may surface its effects, which is exactly the
// ambiguity a lost ack creates in any quorum system.
var ErrNoQuorumAck = errors.New("cluster: write quorum not acknowledged")

// SiteAccess is everything the protocol engine knows about replica
// sites: which of them answered step 1 and with what logs, and which
// of those recorded the updated view in step 3. The simulation
// implements it over in-memory logs and a reachability relation, relaxd
// over a transport fanout to durable replicas; DESIGN.md §15 states
// the refinement between the two.
type SiteAccess interface {
	// Read is protocol step 1: every site that answered, in ascending
	// site order, with its resident log.
	Read() []SiteLog
	// Record is protocol step 3: it sends the updated view to sites (a
	// subset of the step-1 responders) and returns, in ascending order,
	// those that recorded it. by is the step-3 span, for accessors that
	// keep happens-before links.
	Record(sites []int, updated quorum.Log, by trace.SpanID) []int
}

// SiteLog is one site's answer to step 1.
type SiteLog struct {
	Site int
	Log  quorum.Log
	// LastWrite is the span that last recorded an entry on this log —
	// the happens-before link target of the view that merges it. Zero
	// when unknown.
	LastWrite trace.SpanID
}

// Exec is one execution of the protocol: the invocation, the
// participant executing it, and the gate it executes under.
type Exec struct {
	Inv history.Invocation
	// Gate decides availability in steps 1 and 3. A non-empty Label
	// marks a ladder-gated execution (behavior "level:<Label>", no
	// degraded fallback); an empty one is the plain path.
	Gate  quorum.Assignment
	Label string
	// Degrade lets the plain path proceed with every answering site
	// when the gate quorum is unavailable (Section 3.3).
	Degrade bool
	// Clock is the participant's Lamport clock.
	Clock *quorum.Clock
	// Parent, when set, nests the operation span under it; Attrs are
	// extra operation-span attributes, placed between "op" and "rung".
	Parent *trace.SpanRef
	Attrs  []obs.KV
	// Episode, when set, is told the behavior the gate chose and the
	// sites it chose it over, before step 1 runs.
	Episode func(sites []int, behavior string)
	// AfterStep1 runs after merge and η, AfterStep2 after the response
	// is chosen and checked — crash points and timing marks.
	AfterStep1, AfterStep2 func()
}

// Engine is the three-step quorum-consensus protocol of Section 3.1,
// implemented once: gating, merge, η (with the view cache), response
// choice, clock discipline, the step-3 ack gate, metrics, spans, and
// the audit call. It holds the history of completed operations and the
// view cache of whoever shares it — every client of a simulated
// cluster, or one relaxd client — and is not safe for concurrent use.
type Engine struct {
	name     string // metric and span prefix
	cfg      Config // Base, Fold, Respond, Metrics, Audit, Spans
	observed history.History

	// View-evaluation cache: η of recently evaluated views. A client's
	// next view usually extends a previous one by a single entry (new
	// entries carry fresh maximal timestamps, so appends never reorder),
	// and then η of the new view is one fold step from the cached states
	// instead of a full O(|view|) replay — the difference between O(n²)
	// and O(n) total work on a 10k-op soak.
	// Multiple slots track the divergent log lineages a partition
	// creates (one per network component); replacement is round-robin,
	// so cache behavior is deterministic.
	viewCache [viewCacheSlots]viewEntry
	viewNext  int // round-robin victim
}

// viewCacheSlots bounds the view-evaluation cache: comfortably more
// lineages than a minority partition of a small cluster can create.
const viewCacheSlots = 8

// viewEntry is one cached (view, η(view)) pair; states == nil marks a
// free slot.
type viewEntry struct {
	log    quorum.Log
	states []value.Value
}

// NewEngine builds a protocol engine whose metrics and spans are named
// under name ("cluster", "relaxd"). Of cfg it uses Base, Respond, η
// (Fold, else δ* of Base), Metrics, Audit, and Spans.
func NewEngine(name string, cfg Config) *Engine {
	if cfg.Fold == nil {
		cfg.Fold = quorum.DeltaFold(cfg.Base)
	}
	return &Engine{name: name, cfg: cfg}
}

// Observed returns the completed operations in completion order.
func (e *Engine) Observed() history.History {
	return e.observed.Append() // copy
}

// dropViewCache forgets every cached view: call it when site logs were
// replaced wholesale, so cached lineages may no longer be prefixes of
// any resident log.
func (e *Engine) dropViewCache() {
	e.viewCache = [viewCacheSlots]viewEntry{}
	e.viewNext = 0
}

// Execute runs the three-step protocol for one invocation against
// sites. On success it returns the completed operation execution.
func (e *Engine) Execute(sites SiteAccess, x Exec) (history.Op, error) {
	name := x.Inv.Name
	span := e.beginOpSpan(x)
	metrics := e.cfg.Metrics
	metrics.Counter(e.name + ".execute.attempt." + name).Add(1)

	answers := sites.Read()
	reached := make([]int, len(answers))
	alive := make([]bool, x.Gate.Sites())
	for i, a := range answers {
		reached[i] = a.Site
		alive[a.Site] = true
	}
	metrics.Histogram(e.name+".reachable", reachableBounds).Observe(int64(len(reached)))
	quorumOK := x.Gate.HasQuorum(name, alive)
	strict := x.Label != "" || !x.Degrade // no all-reachable fallback
	if (!quorumOK && strict) || len(reached) == 0 {
		metrics.Counter(e.name + ".execute.unavailable." + name).Add(1)
		x.episode(reached, behaviorReject)
		span.End(obs.KV{K: "outcome", V: "unavailable"})
		reach := "no sites" // a client cut off from everything
		if !quorumOK && strict {
			reach = fmt.Sprintf("%d site(s)", len(reached))
		}
		return history.Op{}, fmt.Errorf("%w: op %s reaches %s", ErrUnavailable, name, reach)
	}
	behavior := behaviorQuorum
	if x.Label != "" {
		behavior = behaviorLevel + x.Label
	} else if !quorumOK {
		behavior = behaviorDegraded
		metrics.Counter(e.name + ".execute.degraded." + name).Add(1)
	}
	x.episode(reached, behavior)
	span.Annotate(obs.KV{K: "behavior", V: behavior})

	// Step 1: merge the logs from an initial quorum into a view. (All
	// answering sites participate; any superset of an initial quorum is
	// an initial quorum.) The step span links to the step-3 span that
	// last wrote each merged site log — the cross-operation
	// happens-before edges of the causal DAG.
	s1 := span.Child(e.name + ".step1.view")
	logs := make([]quorum.Log, len(answers))
	for i, a := range answers {
		logs[i] = a.Log
		s1.Link(a.LastWrite)
	}
	view := quorum.Merge(logs...)
	states := e.evalView(view)
	s1.End(obs.KV{K: "sites", V: strconv.Itoa(len(reached))})
	if len(states) == 0 {
		span.End(obs.KV{K: "outcome", V: "uninterpretable"})
		return history.Op{}, ErrUninterpretable
	}
	s := states[0]
	if x.AfterStep1 != nil {
		x.AfterStep1()
	}

	// Step 2: choose a response consistent with the view.
	s2 := span.Child(e.name + ".step2.respond")
	op, ok := e.cfg.Respond(s, x.Inv)
	if !ok || !e.cfg.Base.PreHolds(s, op) {
		metrics.Counter(e.name + ".execute.noresponse." + name).Add(1)
		s2.End(obs.KV{K: "outcome", V: "no-response"})
		span.End(obs.KV{K: "outcome", V: "no-response"})
		what := x.Inv.String()
		if ok {
			what = fmt.Sprintf("precondition of %s fails", op)
		}
		return history.Op{}, fmt.Errorf("%w: %s on view %s", ErrNoResponse, what, s)
	}
	s2.End(obs.KV{K: "outcome", V: "ok"})
	if x.AfterStep2 != nil {
		x.AfterStep2()
	}

	// Step 3: append the entry and record the updated view at a final
	// quorum of the step-1 responders.
	s3 := span.Child(e.name + ".step3.record")
	if maxTS, any := view.MaxTS(); any {
		x.Clock.Witness(maxTS)
	}
	updated := view.Append(quorum.Entry{TS: x.Clock.Tick(), Op: op})
	acks := sites.Record(reached, updated, s3.ID())
	acked := make([]bool, len(alive))
	for _, site := range acks {
		acked[site] = true
	}
	s3.End(obs.KV{K: "sites", V: strconv.Itoa(len(acks))})
	if ackOK := x.Gate.HasQuorum(name, acked); (!ackOK && strict) || len(acks) == 0 {
		metrics.Counter(e.name + ".execute.noack." + name).Add(1)
		span.End(obs.KV{K: "outcome", V: "no-quorum-ack"})
		by := "no sites"
		if !ackOK && strict {
			by = fmt.Sprintf("%d of %d site(s)", len(acks), len(reached))
		}
		return history.Op{}, fmt.Errorf("%w: op %s acked by %s", ErrNoQuorumAck, name, by)
	}
	// Grown in place: Observed copies on read, and only Execute appends,
	// so amortized growth never aliases a caller's snapshot.
	e.observed = append(e.observed, op)
	metrics.Counter(e.name + ".execute.ok." + name).Add(1)
	if e.cfg.Audit != nil {
		e.cfg.Audit.ObserveOp(op)
	}
	span.End(obs.KV{K: "outcome", V: "ok"})
	return op, nil
}

// episode reports the gate's decision to the participant, if it asked.
func (x *Exec) episode(sites []int, behavior string) {
	if x.Episode != nil {
		x.Episode(sites, behavior)
	}
}

// beginOpSpan opens the operation span (nil when spans are off). The
// "rung" attribute carries the ladder label, or "base" on the plain
// path — the key the critical-path analyzer aggregates by.
func (e *Engine) beginOpSpan(x Exec) *trace.SpanRef {
	if e.cfg.Spans == nil {
		return nil
	}
	rung := x.Label
	if rung == "" {
		rung = "base"
	}
	attrs := make([]obs.KV, 0, len(x.Attrs)+2)
	attrs = append(attrs, obs.KV{K: "op", V: x.Inv.Name})
	attrs = append(attrs, x.Attrs...)
	attrs = append(attrs, obs.KV{K: "rung", V: rung})
	if x.Parent != nil {
		return x.Parent.Child(e.name+".op", attrs...)
	}
	return e.cfg.Spans.Begin(e.name+".op", attrs...)
}

// evalView interprets a view through η.
func (e *Engine) evalView(view quorum.Log) []value.Value {
	fold := e.cfg.Fold
	// Fold from the cached view with the longest prefix of this one
	// (lowest slot wins ties, keeping the scan deterministic).
	best := -1
	for i, c := range e.viewCache {
		if c.states == nil || !view.HasPrefix(c.log) {
			continue
		}
		if best < 0 || c.log.Len() > e.viewCache[best].log.Len() {
			best = i
		}
	}
	var states []value.Value
	if best >= 0 {
		states = fold.EvalLogFrom(e.viewCache[best].states, view, e.viewCache[best].log.Len())
	} else {
		states = fold.EvalLog(view)
	}
	if len(states) > 0 {
		// Advance the matched lineage in place; a miss claims the next
		// round-robin victim so each partition component keeps a slot.
		slot := best
		if slot < 0 {
			slot = e.viewNext
			e.viewNext = (e.viewNext + 1) % viewCacheSlots
		}
		e.viewCache[slot] = viewEntry{log: view, states: states}
	}
	return states
}
