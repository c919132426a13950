package quorum

import (
	"math"
	"testing"

	"relaxlattice/internal/history"
)

func TestVotingIntersections(t *testing.T) {
	for _, n := range []int{3, 4, 5, 7} {
		assigns := TaxiAssignments(n)
		checks := map[string]struct{ q1, q2 bool }{
			"Q1Q2": {true, true},
			"Q1":   {true, false},
			"Q2":   {false, true},
			"none": {false, false},
		}
		for name, want := range checks {
			rel := Joint(assigns[name])
			gotQ1 := Q1().IsSubrelationOf(rel)
			gotQ2 := Q2().IsSubrelationOf(rel)
			if gotQ1 != want.q1 || gotQ2 != want.q2 {
				t.Errorf("n=%d %s: Q1=%v Q2=%v, want %+v", n, name, gotQ1, gotQ2, want)
			}
		}
	}
}

// holds reports inv(inv) Q op.
func holds(rel Relation, inv, op string) bool {
	return NewRelation(Pair{Inv: inv, Op: op}).IsSubrelationOf(rel)
}

func TestVotingRelationDerivation(t *testing.T) {
	v := TaxiAssignments(5)["Q1Q2"]
	rel := Joint(v)
	if !Q1().Union(Q2()).IsSubrelationOf(rel) {
		t.Errorf("derived relation %v misses Q1∪Q2", rel)
	}
	// The derived relation must not claim Enq needs to see anything.
	if rel.Holds(history.EnqInv(1), history.DeqOk(1)) {
		t.Errorf("spurious inv(Enq)→Deq")
	}
}

func TestMajority(t *testing.T) {
	v := Majority(5, history.NameEnq, history.NameDeq)
	if v.Sites() != 5 {
		t.Errorf("sites: %v", v)
	}
	q, ok := v.Quorums(history.NameEnq)
	if !ok || q.Initial != 3 || q.Final != 3 {
		t.Errorf("quorums = %+v", q)
	}
	if _, ok := v.Quorums("nope"); ok {
		t.Errorf("unknown op had quorums")
	}
	// Majorities always intersect.
	if rel := Joint(v); !holds(rel, history.NameDeq, history.NameEnq) || !holds(rel, history.NameEnq, history.NameDeq) {
		t.Errorf("majorities must intersect: %v", rel)
	}
}

func TestHasQuorum(t *testing.T) {
	v := Majority(5, history.NameDeq)
	alive := []bool{true, true, true, false, false}
	if !v.HasQuorum(history.NameDeq, alive) {
		t.Errorf("3 of 5 should form a majority quorum")
	}
	alive = []bool{true, true, false, false, false}
	if v.HasQuorum(history.NameDeq, alive) {
		t.Errorf("2 of 5 should not")
	}
	if v.HasQuorum("nope", alive) {
		t.Errorf("unknown op has quorum")
	}
}

// Availability via DP matches brute-force enumeration over up/down
// patterns.
func TestAvailabilityMatchesBruteForce(t *testing.T) {
	v := NewVoting([]int{1, 2, 1, 1}, map[string]OpQuorums{
		"Op": {Initial: 3, Final: 2},
	})
	pUp := 0.8
	got := v.Availability("Op", pUp)
	want := 0.0
	n := 4
	weights := []int{1, 2, 1, 1}
	for mask := 0; mask < 1<<n; mask++ {
		w, p := 0, 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += weights[i]
				p *= pUp
			} else {
				p *= 1 - pUp
			}
		}
		if w >= 3 { // need max(initial, final)
			want += p
		}
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", got, want)
	}
	if v.Availability("nope", pUp) != 0 {
		t.Errorf("unknown op available")
	}
}

// Relaxing constraints raises availability: the paper's motivating
// trade-off. At pUp = 0.9 over 5 sites, availability(none) ≥
// availability(Q1) ≥ availability(Q1Q2) for Deq.
func TestAvailabilityMonotoneInRelaxation(t *testing.T) {
	assigns := TaxiAssignments(5)
	pUp := 0.9
	deq := history.NameDeq
	aFull := assigns["Q1Q2"].Availability(deq, pUp)
	aQ1 := assigns["Q1"].Availability(deq, pUp)
	aNone := assigns["none"].Availability(deq, pUp)
	if !(aNone >= aQ1 && aQ1 >= aFull) {
		t.Errorf("availability not monotone: none=%v Q1=%v full=%v", aNone, aQ1, aFull)
	}
	if aNone <= aFull {
		t.Errorf("relaxation should strictly help: none=%v full=%v", aNone, aFull)
	}
	// The fully relaxed Deq needs only one site.
	want := 1 - math.Pow(0.1, 5)
	if math.Abs(aNone-want) > 1e-9 {
		t.Errorf("none availability = %v, want %v", aNone, want)
	}
}

func TestVotingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"weight":    func() { NewVoting([]int{0}, nil) },
		"threshold": func() { NewVoting([]int{1}, map[string]OpQuorums{"X": {Initial: 2, Final: 1}}) },
		"zero":      func() { NewVoting([]int{1}, map[string]OpQuorums{"X": {Initial: 0, Final: 1}}) },
		"taxi":      func() { TaxiAssignments(2) },
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
