package lattice

import (
	"sort"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
)

// StepChecker tracks an execution's position in a relaxation lattice
// online, one operation at a time, by maintaining an automaton.Frontier
// per element of φ's domain. It computes exactly what
// Relaxation.WeakestAccepting computes on every prefix — the maximal
// constraint sets whose behavior accepts the history so far — but
// incrementally: each Step is amortized O(Σ frontier sizes) instead of
// replaying the full history through every automaton.
//
// It keeps the domain in a deterministic slice (no map iteration) and
// exposes the peak frontier size for observability.
//
// A StepChecker is not safe for concurrent use; callers serialize
// Steps (internal/relaxcheck wraps one in a mutex for live audits).
type StepChecker struct {
	lat    *Relaxation
	sets   []Set                 // φ's domain, strongest first; parallel to fronts
	fronts []*automaton.Frontier // nil once the element is dead
	alive  int
	peak   int   // largest single-element frontier seen
	cur    []Set // maximal viable sets; replaced, never written, when alive changes
}

// NewStepChecker starts a checker at the empty history (every element
// of φ's domain viable).
func NewStepChecker(lat *Relaxation) *StepChecker {
	return NewUpSetChecker(lat, 0)
}

// NewUpSetChecker starts a checker over only the elements of φ's
// domain that contain floor — the elements that can cover a claim of
// floor. Current, Alive and Viable then range over that up-set alone;
// with floor = ∅ it is NewStepChecker.
func NewUpSetChecker(lat *Relaxation, floor Set) *StepChecker {
	var domain []Set
	for _, s := range lat.Domain() {
		if floor.SubsetOf(s) {
			domain = append(domain, s)
		}
	}
	c := &StepChecker{
		lat:    lat,
		sets:   domain,
		fronts: make([]*automaton.Frontier, len(domain)),
		alive:  len(domain),
		peak:   1,
	}
	for i, s := range domain {
		a, _ := lat.Phi(s)
		c.fronts[i] = automaton.NewFrontier(a)
	}
	c.cur = c.maximal()
	return c
}

// Step advances every viable lattice element by one operation
// execution. It returns true while at least one element still accepts
// the history; elements that reject are discarded permanently
// (prefix-closed languages never recover).
func (c *StepChecker) Step(op history.Op) bool {
	alive := c.alive
	for i, f := range c.fronts {
		if f == nil {
			continue
		}
		if !f.Step(op) {
			c.fronts[i] = nil
			c.alive--
			continue
		}
		if f.Size() > c.peak {
			c.peak = f.Size()
		}
	}
	if c.alive != alive {
		c.cur = c.maximal()
	}
	return c.alive > 0
}

// Alive returns how many lattice elements still accept the history.
func (c *StepChecker) Alive() int { return c.alive }

// Current returns the maximal viable constraint sets — identical, on
// every prefix, to Relaxation.WeakestAccepting of that prefix (nil
// when nothing in the lattice accepts the history). The slice is
// shared and never written after it is returned; callers must not
// mutate it.
func (c *StepChecker) Current() []Set { return c.cur }

// maximal computes Current afresh: the sets change only when an
// element dies.
func (c *StepChecker) maximal() []Set {
	var maximal []Set
	for i, s := range c.sets {
		if c.fronts[i] == nil {
			continue
		}
		dominated := false
		for j, t := range c.sets {
			if c.fronts[j] != nil && s != t && s.SubsetOf(t) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, s)
		}
	}
	sort.Slice(maximal, func(i, j int) bool { return maximal[i] < maximal[j] })
	return maximal
}

// MaxFrontier returns the largest per-element frontier size seen so
// far — the constant in the checker's O(frontier) step cost.
func (c *StepChecker) MaxFrontier() int { return c.peak }

// Lattice returns the relaxation the checker runs against.
func (c *StepChecker) Lattice() *Relaxation { return c.lat }
