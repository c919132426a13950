package quorum

import (
	"math"
	"testing"

	"relaxlattice/internal/history"
)

func TestSiteSetBasics(t *testing.T) {
	s := Sites(0, 2, 4)
	if !s.Has(0) || s.Has(1) || !s.Has(4) {
		t.Errorf("membership wrong")
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d", s.Size())
	}
	if !s.Intersects(Sites(2)) || s.Intersects(Sites(1, 3)) {
		t.Errorf("Intersects wrong")
	}
	if !Sites(0).SubsetOf(s) || s.SubsetOf(Sites(0, 2)) {
		t.Errorf("SubsetOf wrong")
	}
	if s.String() != "{0,2,4}" {
		t.Errorf("String = %q", s.String())
	}
	idx := s.Indexes()
	if len(idx) != 3 || idx[2] != 4 {
		t.Errorf("Indexes = %v", idx)
	}
}

// The paper's Q1/Q2 constraints expressed with explicit quorums: Deq
// reads {0,1,2} or {2,3,4}; Enq writes {0,1,2}... construct an
// assignment realizing exactly Q1.
func TestExplicitIntersection(t *testing.T) {
	a := NewExplicit(5,
		map[string][]SiteSet{
			history.NameEnq: {Sites(0)},
			history.NameDeq: {Sites(0, 1, 2), Sites(2, 3, 4)},
		},
		map[string][]SiteSet{
			history.NameEnq: {Sites(0, 1, 2, 3, 4)}, // full write: everyone sees it
			history.NameDeq: {Sites(0)},
		},
	)
	rel := Joint(a)
	if !Q1().IsSubrelationOf(rel) {
		t.Errorf("relation %v misses Q1", rel)
	}
	// Deq initial {2,3,4} misses Deq final {0}: Q2 fails.
	if Q2().IsSubrelationOf(rel) {
		t.Errorf("relation %v wrongly includes Q2", rel)
	}
	if holds(rel, "nope", history.NameEnq) {
		t.Errorf("unknown op intersects")
	}
	if a.Sites() != 5 {
		t.Errorf("Sites = %d", a.Sites())
	}
}

func TestExplicitHasQuorum(t *testing.T) {
	a := NewExplicit(4,
		map[string][]SiteSet{"Op": {Sites(0, 1), Sites(2, 3)}},
		map[string][]SiteSet{"Op": {Sites(1, 2)}},
	)
	// {0,1,2} up: initial {0,1} ✓, final {1,2} ✓.
	if !a.HasQuorum("Op", []bool{true, true, true, false}) {
		t.Errorf("quorum should form")
	}
	// {0,1} up: initial ✓ but final {1,2} misses 2.
	if a.HasQuorum("Op", []bool{true, true, false, false}) {
		t.Errorf("quorum should not form without final")
	}
	if a.HasQuorum("nope", []bool{true, true, true, true}) {
		t.Errorf("unknown op has quorum")
	}
}

func TestGridQuorums(t *testing.T) {
	g := Grid(2, 3, "Read")
	if g.Sites() != 6 {
		t.Fatalf("Sites = %d", g.Sites())
	}
	// Every row intersects every column.
	if !holds(Joint(g), "Read", "Read") {
		t.Errorf("grid rows must intersect columns")
	}
	// A full row plus a full column alive forms both quorums.
	alive := []bool{true, true, true, true, false, false} // row 0 + site 3 (column 0)
	if !g.HasQuorum("Read", alive) {
		t.Errorf("row 0 + column 0 should form quorums")
	}
	// Only a column alive: no initial (row) quorum.
	alive = []bool{true, false, false, true, false, false}
	if g.HasQuorum("Read", alive) {
		t.Errorf("single column cannot form a row quorum")
	}
}

// Exact availability matches a brute-force reference on a small grid.
func TestExplicitAvailability(t *testing.T) {
	g := Grid(2, 2, "Op")
	pUp := 0.9
	got := g.Availability("Op", pUp)
	// Reference: enumerate patterns; initial = some row fully up,
	// final = some column fully up.
	want := 0.0
	for mask := 0; mask < 16; mask++ {
		up := func(i int) bool { return mask&(1<<i) != 0 }
		p := 1.0
		for i := 0; i < 4; i++ {
			if up(i) {
				p *= pUp
			} else {
				p *= 1 - pUp
			}
		}
		row := (up(0) && up(1)) || (up(2) && up(3))
		col := (up(0) && up(2)) || (up(1) && up(3))
		if row && col {
			want += p
		}
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", got, want)
	}
	if g.Availability("nope", pUp) != 0 {
		t.Errorf("unknown op available")
	}
}

func TestExplicitPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"sites":   func() { NewExplicit(0, nil, nil) },
		"emptyQ":  func() { NewExplicit(3, map[string][]SiteSet{"X": {}}, nil) },
		"zeroQ":   func() { NewExplicit(3, map[string][]SiteSet{"X": {Sites()}}, nil) },
		"range":   func() { NewExplicit(3, map[string][]SiteSet{"X": {Sites(5)}}, nil) },
		"badGrid": func() { Grid(0, 3) },
		"badSite": func() { Sites(64) },
		"avail": func() {
			NewExplicit(30, map[string][]SiteSet{"X": {Sites(1)}}, map[string][]SiteSet{"X": {Sites(1)}}).Availability("X", 0.5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Grid quorums beat majorities on quorum size: for a 4x4 grid, quorums
// have 4 sites while a 16-site majority needs 9.
func TestGridQuorumSizeAdvantage(t *testing.T) {
	g := Grid(4, 4, "Op")
	// At high pUp the grid's availability is high despite small quorums.
	if a := g.Availability("Op", 0.95); a < 0.95 {
		t.Errorf("grid availability = %v", a)
	}
}
