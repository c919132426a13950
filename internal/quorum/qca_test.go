package quorum

import (
	"fmt"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func q1q2() Relation { return Q1().Union(Q2()) }

func TestPQEval(t *testing.T) {
	h := history.History{history.Enq(1), history.Enq(3), history.DeqOk(3)}
	got := PQFold().Eval(h)
	if len(got) != 1 || !got[0].(value.Bag).Equal(value.EmptyBag().Ins(1)) {
		t.Errorf("PQFold().Eval = %v", got)
	}
	// η is defined for arbitrary sequences, including illegal PQ
	// histories such as dequeuing a lower-priority item first.
	h = history.History{history.Enq(1), history.Enq(3), history.DeqOk(1)}
	got = PQFold().Eval(h)
	if len(got) != 1 || !got[0].(value.Bag).Equal(value.EmptyBag().Ins(3)) {
		t.Errorf("PQFold().Eval on illegal history = %v", got)
	}
	// Deleting an absent element leaves the bag unchanged.
	h = history.History{history.DeqOk(5)}
	got = PQFold().Eval(h)
	if len(got) != 1 || !got[0].(value.Bag).IsEmp() {
		t.Errorf("PQFold().Eval del-absent = %v", got)
	}
	if PQFold().Eval(history.History{history.Credit(1)}) != nil {
		t.Errorf("PQFold().Eval should reject foreign ops")
	}
}

// η agrees with δ* on legal priority-queue histories (the defining
// requirement of an evaluation function, Section 3.2).
func TestPQEvalAgreesWithDeltaStar(t *testing.T) {
	pq := specs.PriorityQueue()
	for _, h := range automaton.Language(pq, history.QueueAlphabet(3), 5) {
		states := automaton.StatesAfter(pq, h)
		if len(states) != 1 {
			t.Fatalf("PQ should be deterministic: %v -> %v", h, states)
		}
		eta := PQFold().Eval(h)
		if len(eta) != 1 || eta[0].Key() != states[0].Key() {
			t.Errorf("η(%v) = %v, δ* = %v", h, eta, states)
		}
	}
}

func TestPQEvalPrime(t *testing.T) {
	// Deq(1) with 3 pending drops the skipped-over 3.
	h := history.History{history.Enq(1), history.Enq(3), history.DeqOk(1)}
	got := PQPrimeFold().Eval(h)
	if len(got) != 1 || !got[0].(value.Bag).IsEmp() {
		t.Errorf("η′ = %v, want empty", got)
	}
	// On legal PQ histories η′ agrees with δ* too.
	pq := specs.PriorityQueue()
	for _, h := range automaton.Language(pq, history.QueueAlphabet(3), 5) {
		states := automaton.StatesAfter(pq, h)
		eta := PQPrimeFold().Eval(h)
		if len(eta) != 1 || eta[0].Key() != states[0].Key() {
			t.Errorf("η′(%v) = %v, δ* = %v", h, eta, states)
		}
	}
	if PQPrimeFold().Eval(history.History{history.Credit(1)}) != nil {
		t.Errorf("η′ should reject foreign ops")
	}
}

func TestAccountEval(t *testing.T) {
	h := history.History{history.Credit(5), history.DebitOk(3), history.DebitOver(9)}
	got := AccountFold().Eval(h)
	if len(got) != 1 || got[0].(value.Account).Balance != 2 {
		t.Errorf("AccountFold().Eval = %v", got)
	}
	// Arbitrary sequences are evaluated, even "overdrawing" ones.
	h = history.History{history.DebitOk(3)}
	got = AccountFold().Eval(h)
	if len(got) != 1 || got[0].(value.Account).Balance != -3 {
		t.Errorf("AccountFold().Eval = %v", got)
	}
	if AccountFold().Eval(history.History{history.Enq(1)}) != nil {
		t.Errorf("AccountFold().Eval should reject foreign ops")
	}
}

func TestQCAWithFullRelationIsPQ(t *testing.T) {
	// {Q1, Q2} is a serial dependency relation for PQ, so
	// L(QCA(PQ, {Q1,Q2}, η)) = L(PQ) — one-copy serializability.
	qca := NewQCA("QCA-PQ-full", specs.PriorityQueue(), q1q2(), PQFold())
	res := automaton.Compare(qca.Compiled(), specs.PriorityQueue(), history.QueueAlphabet(2), 5)
	if !res.Equal {
		t.Fatalf("not one-copy serializable: onlyQCA=%v onlyPQ=%v", res.OnlyA, res.OnlyB)
	}
}

func TestQCAQ1AcceptsDuplicatesInOrder(t *testing.T) {
	qca := NewQCA("QCA-PQ-Q1", specs.PriorityQueue(), Q1(), PQFold())
	// A view may omit the earlier Deq, so the request is serviced twice.
	dup := history.History{history.Enq(3), history.DeqOk(3), history.DeqOk(3)}
	if !automaton.Accepts(qca, dup) {
		t.Errorf("Q1 relaxation should accept duplicate service")
	}
	// But never out of order: every view contains all Enqs.
	ooo := history.History{history.Enq(1), history.Enq(3), history.DeqOk(1)}
	if automaton.Accepts(qca, ooo) {
		t.Errorf("Q1 relaxation must not service out of order")
	}
	// Witness explains the duplicate: the justifying view omits a Deq.
	w, ok := qca.Witness(dup[:2:2], history.DeqOk(3))
	if !ok {
		t.Fatalf("no witness")
	}
	if !w.Equal(history.History{history.Enq(3)}) {
		t.Errorf("witness = %v", w)
	}
}

func TestQCAQ2AcceptsOutOfOrderOnly(t *testing.T) {
	qca := NewQCA("QCA-PQ-Q2", specs.PriorityQueue(), Q2(), PQFold())
	// A view may omit Enq(3), so 1 is dequeued out of order.
	ooo := history.History{history.Enq(1), history.Enq(3), history.DeqOk(1)}
	if !automaton.Accepts(qca, ooo) {
		t.Errorf("Q2 relaxation should accept out-of-order service")
	}
	// But never twice: all Deqs are visible to every Deq view.
	dup := history.History{history.Enq(3), history.DeqOk(3), history.DeqOk(3)}
	if automaton.Accepts(qca, dup) {
		t.Errorf("Q2 relaxation must not service twice")
	}
}

func TestQCAEmptyRelationDegenerate(t *testing.T) {
	qca := NewQCA("QCA-PQ-none", specs.PriorityQueue(), NewRelation(), PQFold())
	both := history.History{history.Enq(1), history.Enq(3), history.DeqOk(1), history.DeqOk(1)}
	if !automaton.Accepts(qca, both) {
		t.Errorf("∅ relaxation should accept duplicated out-of-order service")
	}
	// Still never returns an element that was never enqueued.
	bad := history.History{history.Enq(1), history.DeqOk(2)}
	if automaton.Accepts(qca, bad) {
		t.Errorf("∅ relaxation returned a never-enqueued element")
	}
}

func TestQCAStepAndState(t *testing.T) {
	qca := NewQCA("QCA", specs.PriorityQueue(), q1q2(), nil) // nil η defaults to δ*
	s0 := qca.Init()
	next := qca.Step(s0, history.Enq(1))
	if len(next) != 1 {
		t.Fatalf("Step = %v", next)
	}
	hs := next[0].(HistState)
	if !hs.H.Equal(history.History{history.Enq(1)}) {
		t.Errorf("state = %v", hs)
	}
	if hs.Key() == s0.Key() {
		t.Errorf("key collision")
	}
	if hs.String() != "Enq(1)/Ok()" {
		t.Errorf("String = %q", hs.String())
	}
	// Foreign state type is rejected gracefully.
	if qca.Step(value.EmptyBag(), history.Enq(1)) != nil {
		t.Errorf("foreign state accepted")
	}
	if qca.Name() != "QCA" {
		t.Errorf("accessors wrong")
	}
	// With δ* as η, relaxed acceptance is still justified only by legal
	// PQ views.
	if _, ok := qca.Witness(history.History{history.Enq(1)}, history.DeqOk(2)); ok {
		t.Errorf("witness for illegal op")
	}
}

func TestSerialDependencyQ1Q2ForPQ(t *testing.T) {
	ok, v := IsSerialDependency(specs.PriorityQueue(), q1q2(), history.QueueAlphabet(2), 4)
	if !ok {
		t.Fatalf("{Q1,Q2} should be a serial dependency relation for PQ: %v", v)
	}
}

func TestSerialDependencyQ1AloneFailsForPQ(t *testing.T) {
	ok, v := IsSerialDependency(specs.PriorityQueue(), Q1(), history.QueueAlphabet(2), 4)
	if ok {
		t.Fatalf("Q1 alone should not be a serial dependency relation for PQ")
	}
	if v == nil || v.String() == "" {
		t.Errorf("missing violation detail")
	}
}

// Q₁ is a serial dependency relation for MPQ — the key lemma in the
// proof of Theorem 4.
func TestSerialDependencyQ1ForMPQ(t *testing.T) {
	ok, v := IsSerialDependency(specs.MultiPriorityQueue(), Q1(), history.QueueAlphabet(2), 4)
	if !ok {
		t.Fatalf("Q1 should be a serial dependency relation for MPQ: %v", v)
	}
}

// {Q1,Q2} is minimal for PQ: dropping either pair breaks the property
// (Section 3.3: the constraints are necessary and sufficient).
func TestMinimality(t *testing.T) {
	wit := MinimalityWitness(specs.PriorityQueue(), q1q2(), history.QueueAlphabet(2), 4)
	if len(wit) != 2 {
		t.Fatalf("witness map = %v", wit)
	}
	for _, v := range wit {
		if v.StillSerial {
			t.Errorf("dropping %v kept the serial dependency property; relation not minimal", v.Dropped)
		}
	}
}

func TestFIFOEvalInPackage(t *testing.T) {
	h := history.History{history.Enq(1), history.Enq(1), history.DeqOk(1)}
	got := FIFOFold().Eval(h)
	if len(got) != 1 || !got[0].(value.Seq).Equal(value.EmptySeq().Ins(1)) {
		t.Errorf("FIFOFold().Eval = %v", got)
	}
	// Removing an absent element leaves the queue unchanged.
	got = FIFOFold().Eval(history.History{history.DeqOk(5)})
	if len(got) != 1 || !got[0].(value.Seq).IsEmp() {
		t.Errorf("FIFOFold().Eval del-absent = %v", got)
	}
	for _, bad := range []history.History{
		{history.Credit(1)},
		{history.MakeOp("Enq", []int{1, 2}, history.Ok, nil)},
		{history.MakeOp("Deq", nil, "Weird", []int{1})},
	} {
		if FIFOFold().Eval(bad) != nil {
			t.Errorf("FIFOFold().Eval accepted %v", bad)
		}
	}
}

// String renders the counterexample.
func (v DependencyViolation) String() string {
	return fmt.Sprintf("H=%v, Q-view G=%v, p=%v: G·p ∈ L(A) but H·p ∉ L(A)", v.H, v.G, v.P)
}
