package lattice

import (
	"fmt"
	"sort"
	"strings"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
)

// Relaxation is a relaxation lattice (Section 2.2): a constraint
// universe C, a lattice of automata, and the homomorphism φ: 2^C → A.
// φ may be partial — defined over a sublattice of 2^C — as in the bank
// account (Section 3.4, A₂ may never be dropped) and the semiqueue
// (Section 4.2.1, only nonempty constraint sets).
type Relaxation struct {
	// Name identifies the lattice in output.
	Name string
	// Universe is the constraint set C.
	Universe *Universe
	// Phi maps a constraint set to the automaton whose language the
	// object exhibits while satisfying exactly that set. ok=false means
	// the set is outside φ's sublattice domain.
	Phi func(Set) (automaton.Automaton, bool)
}

// Preferred returns φ(C), the preferred behavior at the top of the
// lattice. It panics if the top is outside φ's domain (every relaxation
// lattice must have a preferred behavior).
func (r *Relaxation) Preferred() automaton.Automaton {
	a, ok := r.Phi(r.Universe.All())
	if !ok {
		panic(fmt.Sprintf("lattice: %s has no preferred behavior (φ undefined at ⊤)", r.Name))
	}
	return a
}

// Domain returns the constraint sets where φ is defined, strongest
// first.
func (r *Relaxation) Domain() []Set {
	var out []Set
	for _, s := range r.Universe.SubsetsBySize() {
		if _, ok := r.Phi(s); ok {
			out = append(out, s)
		}
	}
	return out
}

// Level groups φ's domain by behavior: each Level is one automaton and
// the constraint sets mapped to it.
type Level struct {
	// Behavior names the automaton.
	Behavior string
	// Sets are the constraint sets φ maps to this behavior, strongest
	// first.
	Sets []Set
}

// Levels returns the lattice's behaviors with their preimages, ordered
// with the preferred behavior first (by minimum preimage size,
// descending). This regenerates tables like Figure 4-2.
func (r *Relaxation) Levels() []Level {
	byBehavior := map[string][]Set{}
	var order []string
	for _, s := range r.Domain() {
		a, _ := r.Phi(s)
		if _, seen := byBehavior[a.Name()]; !seen {
			order = append(order, a.Name())
		}
		byBehavior[a.Name()] = append(byBehavior[a.Name()], s)
	}
	levels := make([]Level, 0, len(order))
	for _, name := range order {
		levels = append(levels, Level{Behavior: name, Sets: byBehavior[name]})
	}
	return levels
}

// MonotonicityViolation describes a failure of the homomorphism
// property: a weaker constraint set whose behavior rejects a history
// that a stronger set accepts.
type MonotonicityViolation struct {
	Weaker, Stronger Set
	Witness          history.History
}

// VerifyMonotone checks, by bounded language comparison, that φ is
// order-reversing on its domain: S ⊆ S' implies L(φ(S')) ⊆ L(φ(S)) —
// relaxing constraints only ever adds behaviors. It returns the
// violations found (none for a correct relaxation lattice).
func (r *Relaxation) VerifyMonotone(alphabet []history.Op, maxLen int) []MonotonicityViolation {
	domain := r.Domain()
	var violations []MonotonicityViolation
	for _, strong := range domain {
		for _, weak := range domain {
			if weak == strong || !weak.SubsetOf(strong) {
				continue
			}
			as, _ := r.Phi(strong)
			aw, _ := r.Phi(weak)
			res := automaton.Compare(as, aw, alphabet, maxLen)
			if !res.SubsetAB() {
				violations = append(violations, MonotonicityViolation{
					Weaker:   weak,
					Stronger: strong,
					Witness:  res.OnlyA,
				})
			}
		}
	}
	return violations
}

// WeakestAccepting returns the strongest constraint sets (highest
// lattice elements) whose behavior accepts h — the position in the
// lattice to which an observed execution has degraded. The second
// result is false when no behavior in the lattice accepts h.
func (r *Relaxation) WeakestAccepting(h history.History) ([]Set, bool) {
	accepting := map[Set]bool{}
	for _, s := range r.Domain() {
		a, _ := r.Phi(s)
		if automaton.Accepts(a, h) {
			accepting[s] = true
		}
	}
	if len(accepting) == 0 {
		return nil, false
	}
	// Keep the maximal accepting sets: not a subset of another
	// accepting set.
	var maximal []Set
	for s := range accepting {
		dominated := false
		for t := range accepting {
			if s != t && s.SubsetOf(t) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, s)
		}
	}
	sort.Slice(maximal, func(i, j int) bool { return maximal[i] < maximal[j] })
	return maximal, true
}

// Hasse renders the lattice as text, one rank per line from the top
// (strongest) down, with each constraint set and its behavior.
func (r *Relaxation) Hasse() string {
	var b strings.Builder
	fmt.Fprintf(&b, "relaxation lattice %s\n", r.Name)
	domain := r.Domain()
	bySize := map[int][]Set{}
	var sizes []int
	for _, s := range domain {
		n := s.Size()
		if _, seen := bySize[n]; !seen {
			sizes = append(sizes, n)
		}
		bySize[n] = append(bySize[n], s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for _, n := range sizes {
		var cells []string
		for _, s := range bySize[n] {
			a, _ := r.Phi(s)
			cells = append(cells, fmt.Sprintf("%s → %s", r.Universe.Format(s), a.Name()))
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(cells, "    "))
	}
	return b.String()
}

// Census tallies, over a corpus of observed histories, how many land on
// each lattice element as their strongest accepting constraint set —
// fleet-level degradation reporting. Histories outside the lattice are
// counted under the second return value. When a history has several
// incomparable maximal elements, each is counted (so totals can exceed
// the corpus size).
func Census(lat *Relaxation, corpus []history.History) (map[Set]int, int) {
	counts := map[Set]int{}
	rejected := 0
	for _, h := range corpus {
		sets, ok := lat.WeakestAccepting(h)
		if !ok {
			rejected++
			continue
		}
		for _, s := range sets {
			counts[s]++
		}
	}
	return counts, rejected
}
