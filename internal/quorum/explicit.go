package quorum

import (
	"fmt"
	"sort"
	"strings"
)

// SiteSet is a set of site indexes, the granularity at which explicit
// quorums are declared.
type SiteSet uint64

// Sites builds a SiteSet from indexes.
func Sites(indexes ...int) SiteSet {
	var s SiteSet
	for _, i := range indexes {
		if i < 0 || i >= 64 {
			panic(fmt.Sprintf("quorum: site index %d outside [0,64)", i))
		}
		s |= 1 << uint(i)
	}
	return s
}

// Has reports membership.
func (s SiteSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Intersects reports s ∩ t ≠ ∅.
func (s SiteSet) Intersects(t SiteSet) bool { return s&t != 0 }

// SubsetOf reports s ⊆ t.
func (s SiteSet) SubsetOf(t SiteSet) bool { return s&^t == 0 }

// Size returns |s|.
func (s SiteSet) Size() int {
	n := 0
	for x := s; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Indexes returns the member indexes, ascending.
func (s SiteSet) Indexes() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the set as "{0,2,4}".
func (s SiteSet) String() string {
	parts := make([]string, 0, s.Size())
	for _, i := range s.Indexes() {
		parts = append(parts, fmt.Sprintf("%d", i))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ExplicitAssignment lists, per operation, the minimal initial and
// final quorums as explicit site sets (any superset of a listed quorum
// is also a quorum). It generalizes weighted voting: quorum structures
// such as grids and trees that no vote assignment realizes are
// expressible here.
type ExplicitAssignment struct {
	sites    int
	initials map[string][]SiteSet
	finals   map[string][]SiteSet
}

// NewExplicit builds an explicit assignment over the given number of
// sites. It panics on empty quorum lists, empty quorums, or quorums
// mentioning out-of-range sites.
func NewExplicit(sites int, initials, finals map[string][]SiteSet) *ExplicitAssignment {
	if sites <= 0 || sites > 64 {
		panic(fmt.Sprintf("quorum: %d sites outside (0,64]", sites))
	}
	all := Sites()
	for i := 0; i < sites; i++ {
		all |= 1 << uint(i)
	}
	check := func(kind string, m map[string][]SiteSet) {
		for op, qs := range m {
			if len(qs) == 0 {
				panic(fmt.Sprintf("quorum: %s quorum list for %q is empty", kind, op))
			}
			for _, q := range qs {
				if q == 0 {
					panic(fmt.Sprintf("quorum: empty %s quorum for %q", kind, op))
				}
				if !q.SubsetOf(all) {
					panic(fmt.Sprintf("quorum: %s quorum %v for %q exceeds %d sites", kind, q, op, sites))
				}
			}
		}
	}
	check("initial", initials)
	check("final", finals)
	return &ExplicitAssignment{sites: sites, initials: copyQuorums(initials), finals: copyQuorums(finals)}
}

func copyQuorums(m map[string][]SiteSet) map[string][]SiteSet {
	out := make(map[string][]SiteSet, len(m))
	for k, v := range m {
		out[k] = append([]SiteSet(nil), v...)
	}
	return out
}

// Sites returns the site count.
func (a *ExplicitAssignment) Sites() int { return a.sites }

// Ops returns the operation names with declared quorums (initial or
// final), sorted.
func (a *ExplicitAssignment) Ops() []string {
	names := map[string]bool{}
	for op := range a.initials {
		names[op] = true
	}
	for op := range a.finals {
		names[op] = true
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// meets reports whether every initial quorum for inv intersects every
// final quorum for op under b, set by set, over the same sites — the
// condition defining inv(inv) Q op (Section 3.1).
func (a *ExplicitAssignment) meets(inv string, b Assignment, op string) bool {
	e, ok := b.(*ExplicitAssignment)
	if !ok || e.sites != a.sites {
		return false
	}
	is, ok1 := a.initials[inv]
	fs, ok2 := e.finals[op]
	if !ok1 || !ok2 {
		return false
	}
	for _, i := range is {
		for _, f := range fs {
			if !i.Intersects(f) {
				return false
			}
		}
	}
	return true
}

// HasQuorum reports whether the alive sites contain both an initial and
// a final quorum for op.
func (a *ExplicitAssignment) HasQuorum(op string, alive []bool) bool {
	var up SiteSet
	for i, u := range alive {
		if u && i < a.sites {
			up |= 1 << uint(i)
		}
	}
	return someSubset(a.initials[op], up) && someSubset(a.finals[op], up)
}

func someSubset(quorums []SiteSet, up SiteSet) bool {
	for _, q := range quorums {
		if q.SubsetOf(up) {
			return true
		}
	}
	return false
}

// Availability returns the exact probability, under independent site-up
// probability pUp, that op finds both quorums. It enumerates the 2^n
// alive patterns (n ≤ ~20 recommended).
func (a *ExplicitAssignment) Availability(op string, pUp float64) float64 {
	if a.sites > 24 {
		panic(fmt.Sprintf("quorum: exact availability over %d sites; use Monte Carlo", a.sites))
	}
	total := 0.0
	alive := make([]bool, a.sites)
	for mask := 0; mask < 1<<uint(a.sites); mask++ {
		p := 1.0
		for i := 0; i < a.sites; i++ {
			alive[i] = mask&(1<<uint(i)) != 0
			if alive[i] {
				p *= pUp
			} else {
				p *= 1 - pUp
			}
		}
		if a.HasQuorum(op, alive) {
			total += p
		}
	}
	return total
}

// Grid returns the classic grid quorum assignment for a rows×cols
// array of sites: initial quorums are single rows, final quorums are
// single columns, so every initial quorum intersects every final
// quorum with quorum sizes O(√n) — availability structure no vote
// assignment can express.
func Grid(rows, cols int, ops ...string) *ExplicitAssignment {
	if rows <= 0 || cols <= 0 || rows*cols > 64 {
		panic(fmt.Sprintf("quorum: bad grid %dx%d", rows, cols))
	}
	var rowSets, colSets []SiteSet
	for r := 0; r < rows; r++ {
		var s SiteSet
		for c := 0; c < cols; c++ {
			s |= 1 << uint(r*cols+c)
		}
		rowSets = append(rowSets, s)
	}
	for c := 0; c < cols; c++ {
		var s SiteSet
		for r := 0; r < rows; r++ {
			s |= 1 << uint(r*cols+c)
		}
		colSets = append(colSets, s)
	}
	initials := map[string][]SiteSet{}
	finals := map[string][]SiteSet{}
	for _, op := range ops {
		initials[op] = rowSets
		finals[op] = colSets
	}
	return NewExplicit(rows*cols, initials, finals)
}
