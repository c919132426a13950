// Package relaxcheck is the online relaxation-level checker: a live
// audit that consumes a system's observed operations one at a time and
// tracks, incrementally, exactly where the history sits in a
// relaxation lattice — the online form of the offline
// lattice.Relaxation.WeakestAccepting audit, sound on every prefix
// (DESIGN.md §11).
//
// A Checker implements the audit hooks of both runtimes
// (cluster.Config.Audit and txn.Queue.AttachAudit) and additionally
// cross-checks degradation *claims*: each adaptive descent or ascent
// registers the target rung's constraint set, and the checker fails
// the run the moment the observed history escapes the weakest claimed
// level — not in a post-hoc audit, but at the exact operation that
// violated it.
package relaxcheck

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
)

// Violation kinds.
const (
	// KindExhausted: no lattice element accepts the observed prefix —
	// the history escaped the entire relaxation lattice.
	KindExhausted = "exhausted"
	// KindClaim: the weakest claimed degradation level no longer
	// accepts the observed prefix — the system degraded further than
	// any adaptive controller admitted.
	KindClaim = "claim"
)

// Violation pins the first point at which a run left its claimed
// lattice position.
type Violation struct {
	// Kind is KindExhausted or KindClaim.
	Kind string
	// Step is the 1-based index of the offending operation in the
	// observed history (for claim violations raised by a claim event,
	// the number of operations observed so far).
	Step int
	// Op is the offending operation (zero for violations raised by a
	// claim event rather than an operation).
	Op history.Op
	// Claim renders the violated claim set (empty for KindExhausted).
	Claim string
}

// Error renders the violation as one line.
func (v *Violation) Error() string {
	if v.Kind == KindClaim {
		return fmt.Sprintf("relaxcheck: step %d: %v escapes claimed level %s", v.Step, v.Op, v.Claim)
	}
	return fmt.Sprintf("relaxcheck: step %d: %v rejected by every lattice element", v.Step, v.Op)
}

// Sample is the checker's verdict at one sampled prefix length, for
// differential comparison against the offline WeakestAccepting.
type Sample struct {
	Step int
	Sets []lattice.Set
}

// Options configures a Checker. Every field is optional.
type Options struct {
	// Metrics receives relaxcheck.step / relaxcheck.violation counters
	// and the relaxcheck.frontier.max gauge.
	Metrics *obs.Registry
	// Trace receives relaxcheck.level events (one per change of the
	// maximal viable sets), relaxcheck.claim events, and the
	// relaxcheck.violation event, each stamped with the number of
	// operations observed.
	Trace *obs.Recorder
	// Claims maps degradation-level names (ladder rung names) to the
	// constraint sets they claim. ObserveClaim panics on a name not in
	// the map — an unmapped rung is a configuration error.
	Claims map[string]lattice.Set
	// SampleEvery, when positive, records the checker's verdict every
	// SampleEvery operations (see Samples).
	SampleEvery int
}

// Checker is the live audit. It serializes all observations behind its
// own mutex, so it can be attached to runtimes that call it under
// their own locks (the contract of cluster.Audit: observation must not
// call back into the cluster).
type Checker struct {
	mu        sync.Mutex
	sc        *lattice.StepChecker
	opts      Options
	steps     int
	prevAlive int
	lastLevel string
	minClaim  lattice.Set
	claimName string
	haveClaim bool
	violation *Violation
	samples   []Sample
}

// New builds a checker over a relaxation lattice, starting at the
// empty history.
func New(lat *lattice.Relaxation, opts Options) *Checker {
	sc := lattice.NewStepChecker(lat)
	c := &Checker{sc: sc, opts: opts, prevAlive: sc.Alive()}
	c.lastLevel = formatSets(lat.Universe, sc.Current())
	return c
}

// ObserveOp consumes one observed operation — the cluster.Audit /
// txn.Audit hook. It advances every viable lattice element and raises
// a violation when the extended prefix escapes the lattice or the
// weakest claimed level.
func (c *Checker) ObserveOp(op history.Op) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps++
	alive := c.sc.Step(op)
	c.opts.Metrics.Counter("relaxcheck.step").Add(1)
	c.opts.Metrics.Gauge("relaxcheck.frontier.max").Max(int64(c.sc.MaxFrontier()))
	switch {
	case !alive:
		c.violate(Violation{Kind: KindExhausted, Step: c.steps, Op: op})
	case c.haveClaim && !c.covered(c.minClaim):
		c.violate(Violation{Kind: KindClaim, Step: c.steps, Op: op,
			Claim: c.formatClaim()})
	}
	if c.sc.Alive() != c.prevAlive {
		c.prevAlive = c.sc.Alive()
		c.recordLevel()
	}
	if c.opts.SampleEvery > 0 && c.steps%c.opts.SampleEvery == 0 {
		c.samples = append(c.samples, Sample{Step: c.steps, Sets: c.sc.Current()})
	}
}

// ObserveClaim registers a degradation claim — the
// cluster.ClaimObserver hook, called on every adaptive descent or
// ascent. The claim is the *floor* assertion of X05 in online form:
// the intersection of all claimed sets must keep accepting the
// observed history from here on. It panics on a level name missing
// from Options.Claims.
func (c *Checker) ObserveClaim(client int, level string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.opts.Claims[level]
	if !ok {
		panic(fmt.Sprintf("relaxcheck: claim %q not in Options.Claims", level))
	}
	next := set
	if c.haveClaim {
		next = c.minClaim.Intersect(set)
	}
	if !c.haveClaim || next != c.minClaim {
		c.minClaim = next
		c.claimName = level
	}
	c.haveClaim = true
	if c.opts.Trace != nil {
		c.opts.Trace.Record(int64(c.steps), "relaxcheck.claim",
			obs.KV{K: "client", V: strconv.Itoa(client)},
			obs.KV{K: "level", V: level},
			obs.KV{K: "floor", V: c.formatClaim()})
	}
	if !c.covered(c.minClaim) {
		c.violate(Violation{Kind: KindClaim, Step: c.steps,
			Claim: c.formatClaim()})
	}
}

// covered reports whether the claim set lies at or below the current
// lattice position: claim ⊆ s for some maximal viable s. For claims
// inside φ's domain this is exactly viability (acceptance is antitone
// in the constraint set); the subset form also handles claims outside
// the domain, matching the offline X05 audit.
func (c *Checker) covered(claim lattice.Set) bool {
	for _, s := range c.sc.Current() {
		if claim.SubsetOf(s) {
			return true
		}
	}
	return false
}

// violate records the first violation (sticky) and keeps counting
// later ones in metrics.
func (c *Checker) violate(v Violation) {
	c.opts.Metrics.Counter("relaxcheck.violation").Add(1)
	if c.violation != nil {
		return
	}
	c.violation = &v
	if c.opts.Trace != nil {
		c.opts.Trace.Record(int64(c.steps), "relaxcheck.violation",
			obs.KV{K: "kind", V: v.Kind},
			obs.KV{K: "step", V: strconv.Itoa(v.Step)},
			obs.KV{K: "op", V: v.Op.String()},
			obs.KV{K: "claim", V: v.Claim})
	}
}

// recordLevel journals a change of the maximal viable sets.
func (c *Checker) recordLevel() {
	level := formatSets(c.sc.Lattice().Universe, c.sc.Current())
	if level == c.lastLevel {
		return
	}
	c.lastLevel = level
	if c.opts.Trace != nil {
		c.opts.Trace.Record(int64(c.steps), "relaxcheck.level",
			obs.KV{K: "step", V: strconv.Itoa(c.steps)},
			obs.KV{K: "level", V: level})
	}
}

func (c *Checker) formatClaim() string {
	u := c.sc.Lattice().Universe
	if c.claimName != "" {
		return c.claimName + "=" + u.Format(c.minClaim)
	}
	return u.Format(c.minClaim)
}

// Steps returns the number of operations observed.
func (c *Checker) Steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// Violation returns the first violation, or nil for a clean run.
func (c *Checker) Violation() *Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violation
}

// Current returns the maximal viable constraint sets — equal on every
// prefix to WeakestAccepting of that prefix. The slice is shared;
// callers must not mutate it.
func (c *Checker) Current() []lattice.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sc.Current()
}

// Level renders Current against the lattice's universe.
func (c *Checker) Level() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return formatSets(c.sc.Lattice().Universe, c.sc.Current())
}

// MaxFrontier returns the largest per-element automaton frontier seen.
func (c *Checker) MaxFrontier() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sc.MaxFrontier()
}

// Samples returns the sampled verdicts (Options.SampleEvery).
func (c *Checker) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), c.samples...)
}

// FloorClaim returns the weakest claim registered so far ("" when no
// claim was ever made) rendered with its constraint set.
func (c *Checker) FloorClaim() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveClaim {
		return ""
	}
	return c.formatClaim()
}

// formatSets renders maximal sets as a stable single token.
func formatSets(u *lattice.Universe, sets []lattice.Set) string {
	if len(sets) == 0 {
		return "⊥"
	}
	names := make([]string, len(sets))
	for i, s := range sets {
		names[i] = u.Format(s)
	}
	return strings.Join(names, "|")
}
