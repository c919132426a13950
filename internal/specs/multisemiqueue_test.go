package specs

import (
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
)

func TestMultiSemiqueueAcceptance(t *testing.T) {
	checkAccepts(t, MultiSemiqueue(2), map[string]bool{
		// FIFO behavior is always inside.
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(1) Deq()/Ok(2)": true,
		// Serve within the k-window.
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(2) Deq()/Ok(1)": true,
		// Beyond the window: 3 is the third pending element.
		"Enq(1)/Ok() Enq(2)/Ok() Enq(3)/Ok() Deq()/Ok(3)": false,
		// Re-serve something already served (a stutter) — the front
		// stays re-servable forever.
		"Enq(1)/Ok() Deq()/Ok(1) Deq()/Ok(1) Deq()/Ok(1)": true,
		// The window slides over *pending* elements: serving 1 brings 3
		// into reach, but a re-serve of 1 does not move it further — 4
		// is still the third pending element.
		"Enq(1)/Ok() Enq(2)/Ok() Enq(3)/Ok() Enq(4)/Ok() Deq()/Ok(1) Deq()/Ok(3)":             true,
		"Enq(1)/Ok() Enq(2)/Ok() Enq(3)/Ok() Enq(4)/Ok() Deq()/Ok(1) Deq()/Ok(1) Deq()/Ok(4)": false,
		// Phantoms are still impossible.
		"Deq()/Ok(1)":             false,
		"Enq(1)/Ok() Deq()/Ok(2)": false,
	})
}

func TestMultiSemiqueue1ReServesOnlyTheServed(t *testing.T) {
	checkAccepts(t, MultiSemiqueue(1), map[string]bool{
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(1) Deq()/Ok(2)":             true,
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(2)":                         false, // window 1: front only
		"Enq(1)/Ok() Enq(2)/Ok() Deq()/Ok(1) Deq()/Ok(1) Deq()/Ok(2)": true,  // stutter the served front
	})
}

// MultiSemiqueue(k) contains both Semiqueue(k) (its single-service
// histories) and, at k = 1, MultiFIFOQueue's window-1 re-serves; the
// containments are strict. Bounded language comparison, same bounds as
// the SSqueue lattice-order test.
func TestMultiSemiqueueContainments(t *testing.T) {
	alphabet := history.QueueAlphabet(2)
	const depth = 5
	if r := automaton.Compare(Semiqueue(2), MultiSemiqueue(2), alphabet, depth); !r.SubsetAB() || r.OnlyB == nil {
		t.Errorf("want Semiqueue(2) ⊊ MSqueue(2): subsetAB=%v subsetBA=%v", r.SubsetAB(), r.OnlyB == nil)
	}
	if r := automaton.Compare(FIFOQueue(), MultiSemiqueue(1), alphabet, depth); !r.SubsetAB() || r.OnlyB == nil {
		t.Errorf("want FifoQueue ⊊ MSqueue(1): subsetAB=%v subsetBA=%v", r.SubsetAB(), r.OnlyB == nil)
	}
	if r := automaton.Compare(MultiSemiqueue(1), MultiSemiqueue(2), alphabet, depth); !r.SubsetAB() || r.OnlyB == nil {
		t.Errorf("want MSqueue(1) ⊊ MSqueue(2): subsetAB=%v subsetBA=%v", r.SubsetAB(), r.OnlyB == nil)
	}
}

func TestMultiSemiqueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MultiSemiqueue(0) did not panic")
		}
	}()
	MultiSemiqueue(0)
}
