package core

import (
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

func TestFIFOTheorem(t *testing.T) {
	r := CheckFIFOTheorem(Bound{MaxElem: 2, MaxLen: 6})
	if !r.Holds() {
		t.Fatalf("FIFO Theorem-4 analog failed:\nonly QCA: %v\nonly MFQ: %v",
			r.Compare.OnlyA, r.Compare.OnlyB)
	}
	if r.Compare.CountA[4] < 30 {
		t.Errorf("suspiciously small language at length 4: %d", r.Compare.CountA[4])
	}
}

func TestFIFOFamily(t *testing.T) {
	for _, r := range CheckFIFOFamily(Bound{MaxElem: 2, MaxLen: 5}) {
		if !r.Holds() {
			t.Errorf("%s: %s != %s (onlyLHS=%v onlyRHS=%v)",
				r.Name, r.LHS, r.RHS, r.Compare.OnlyA, r.Compare.OnlyB)
		}
	}
}

func TestMultiFIFOAcceptance(t *testing.T) {
	mfq := specs.MultiFIFOQueue()
	cases := map[string]bool{
		// Plain FIFO histories.
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(1) Deq()/Ok(2)": true,
		// Re-serving the oldest request.
		"Enq(1)/Ok() Deq()/Ok(1) Deq()/Ok(1)": true,
		// Never out of arrival order.
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(2)": false,
		// A served request may be re-served while older than all
		// pending ones...
		"Enq(1)/Ok() Deq()/Ok(1) Enq(2)/Ok() Deq()/Ok(1)": true,
		// ...including after later items are served.
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(1) Deq()/Ok(2) Deq()/Ok(1)": true,
		// But not ahead of an older pending request... (2 newer than 1)
		"Enq(1)/Ok() Deq()/Ok(1) Enq(2)/Ok() Deq()/Ok(2) Deq()/Ok(2)": true, // 2 is youngest served, nothing pending
		"Deq()/Ok(1)": false,
	}
	for s, want := range cases {
		h, err := history.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := automaton.Accepts(mfq, h); got != want {
			t.Errorf("MFQ accepts(%s) = %v, want %v", s, got, want)
		}
	}
}

// A re-serve is forbidden when a strictly older request is pending.
func TestMultiFIFOOrderingSubtlety(t *testing.T) {
	mfq := specs.MultiFIFOQueue()
	// Enq 1, Enq 2, serve 1, serve 2, Enq 3: pending = {3}; both 1 and 2
	// are older than 3, so both may be re-served; after re-serving,
	// serving 3 proceeds.
	ok := history.History{
		history.Enq(1), history.Enq(2), history.DeqOk(1), history.DeqOk(2),
		history.Enq(3), history.DeqOk(2), history.DeqOk(1), history.DeqOk(3),
	}
	if !automaton.Accepts(mfq, ok) {
		t.Errorf("older re-serves should be allowed: %v", ok)
	}
	// Serving 2 while 1 is still pending is out of order even though 2
	// was "present" in some replica's view.
	bad := history.History{history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(1)}
	if automaton.Accepts(mfq, bad) {
		t.Errorf("out-of-arrival-order service accepted: %v", bad)
	}
}

// η_fifo agrees with FIFO's δ* on legal FIFO histories.
func TestFIFOEvalAgreesWithDeltaStar(t *testing.T) {
	fifo := specs.FIFOQueue()
	for _, h := range automaton.Language(fifo, history.QueueAlphabet(3), 5) {
		states := automaton.StatesAfter(fifo, h)
		if len(states) != 1 {
			t.Fatalf("FIFO not deterministic on %v", h)
		}
		eta := quorum.FIFOFold().Eval(h)
		if len(eta) != 1 || eta[0].Key() != states[0].Key() {
			t.Errorf("η_fifo(%v) = %v, δ* = %v", h, eta, states)
		}
	}
	if quorum.FIFOFold().Eval(history.History{history.Credit(1)}) != nil {
		t.Errorf("η_fifo should reject foreign ops")
	}
}

// Q₁ is a serial dependency relation for MFQueue — the lemma mirroring
// the proof of Theorem 4.
func TestQ1SerialDependencyForMFQ(t *testing.T) {
	ok, v := quorum.IsSerialDependency(specs.MultiFIFOQueue(), quorum.Q1(), history.QueueAlphabet(2), 4)
	if !ok {
		t.Fatalf("Q1 should be a serial dependency relation for MFQ: %v", v)
	}
}

func TestFIFOLatticeMonotone(t *testing.T) {
	lat := FIFOLattice()
	if v := lat.VerifyMonotone(history.QueueAlphabet(2), 4); len(v) != 0 {
		t.Fatalf("FIFO lattice not monotone: %v", v[0])
	}
}
