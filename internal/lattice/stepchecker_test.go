package lattice_test

import (
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/sim"
)

// sameSets compares two maximal-set slices (both sorted ascending).
func sameSets(a, b []lattice.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAllPrefixes feeds h one op at a time and asserts the checker's
// Current equals WeakestAccepting of every prefix, and that no slice
// Current returned is written afterwards.
func checkAllPrefixes(t *testing.T, lat *lattice.Relaxation, h history.History) {
	t.Helper()
	sc := lattice.NewStepChecker(lat)
	if want, ok := lat.WeakestAccepting(nil); !ok || !sameSets(sc.Current(), want) {
		t.Fatalf("empty history: checker %v, offline %v (ok=%v)", sc.Current(), want, ok)
	}
	var returned, copies [][]lattice.Set
	defer func() {
		for i, cur := range returned {
			if !sameSets(cur, copies[i]) {
				t.Fatalf("%s: a slice Current returned changed from %v to %v", lat.Name, copies[i], cur)
			}
		}
	}()
	for i, op := range h {
		cur := sc.Current()
		returned, copies = append(returned, cur), append(copies, append([]lattice.Set(nil), cur...))
		alive := sc.Step(op)
		prefix := h[:i+1]
		want, ok := lat.WeakestAccepting(prefix)
		if alive != ok {
			t.Fatalf("%s prefix %v: checker alive=%v, offline ok=%v", lat.Name, prefix, alive, ok)
		}
		if !sameSets(sc.Current(), want) {
			t.Fatalf("%s prefix %v: checker %v, offline %v", lat.Name, prefix, sc.Current(), want)
		}
		top := len(want) == 1 && want[0] == lat.Universe.All()
		if sc.Degraded() == top {
			t.Fatalf("%s prefix %v: Degraded = %v with offline %v", lat.Name, prefix, sc.Degraded(), want)
		}
		if !alive {
			return
		}
	}
}

func TestStepCheckerMatchesWeakestAcceptingTable(t *testing.T) {
	taxi := [][]history.Op{
		{},
		{history.Enq(3), history.Enq(1), history.DeqOk(1)},
		{history.Enq(3), history.Enq(1), history.DeqOk(3)},   // passes over priority 1
		{history.Enq(2), history.DeqOk(2), history.DeqOk(2)}, // duplicate delivery
		{history.DeqOk(7)}, // phantom
		{history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(2)}, // duplicate after reorder
	}
	for _, h := range taxi {
		checkAllPrefixes(t, core.TaxiSimpleLattice(), h)
	}
	spool := [][]history.Op{
		{history.Enq(1), history.Enq(2), history.DeqOk(1), history.DeqOk(2)},
		{history.Enq(1), history.Enq(2), history.Enq(3), history.DeqOk(3)}, // 2-overtake
		{history.Enq(1), history.DeqOk(1), history.DeqOk(1)},
	}
	for _, h := range spool {
		checkAllPrefixes(t, core.SemiqueueLattice(3), h)
		checkAllPrefixes(t, core.StutteringLattice(3), h)
	}
}

func TestStepCheckerMatchesWeakestAcceptingRandom(t *testing.T) {
	lats := []func() *lattice.Relaxation{
		core.TaxiSimpleLattice,
		func() *lattice.Relaxation { return core.SemiqueueLattice(2) },
		func() *lattice.Relaxation { return core.StutteringLattice(2) },
	}
	rng := sim.NewRNG(42)
	alphabet := history.QueueAlphabet(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		h := make(history.History, 0, n)
		for i := 0; i < n; i++ {
			h = append(h, alphabet[rng.Intn(len(alphabet))])
		}
		for _, mk := range lats {
			checkAllPrefixes(t, mk(), h)
		}
	}
}

// TestStepCheckerAgreesWithMonitor keeps the reorder-then-duplicate history
// that once compared the checker with the per-op Monitor. The Monitor was
// WeakestAccepting recomputed on every prefix, so checkAllPrefixes is that
// comparison: Current and Degraded after each op against the offline answer.
func TestStepCheckerAgreesWithMonitor(t *testing.T) {
	h := history.History{history.Enq(3), history.Enq(1), history.DeqOk(3), history.DeqOk(3)}
	checkAllPrefixes(t, core.TaxiSimpleLattice(), h)
}

func TestStepCheckerViableAndAlive(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	sc := lattice.NewStepChecker(lat)
	u := lat.Universe
	if !sc.Viable(u.All()) || sc.Degraded() {
		t.Fatal("fresh checker already degraded")
	}
	// Duplicate delivery kills everything except sets without Q2.
	for _, op := range (history.History{history.Enq(2), history.DeqOk(2), history.DeqOk(2)}) {
		sc.Step(op)
	}
	if sc.Viable(u.All()) {
		t.Fatal("duplicate delivery left the top viable")
	}
	if !sc.Degraded() {
		t.Fatal("Degraded false after losing the top")
	}
	if sc.Alive() == 0 {
		t.Fatal("whole lattice dead on a DegenPQ-legal history")
	}
	if sc.MaxFrontier() < 1 {
		t.Fatalf("MaxFrontier = %d", sc.MaxFrontier())
	}
}

// A phantom dequeue from empty kills every taxi element on the step
// that delivers it, and a dead checker stays dead.
func TestStepCheckerDiesAtPhantomDequeue(t *testing.T) {
	sc := lattice.NewStepChecker(core.TaxiSimpleLattice())
	for i, op := range (history.History{history.DeqOk(9), history.Enq(1)}) {
		if sc.Step(op) {
			t.Fatalf("step %d (%v) left %d elements alive", i, op, sc.Alive())
		}
		if sc.Alive() != 0 || sc.Current() != nil {
			t.Fatalf("step %d (%v): dead checker has Alive = %d, Current = %v", i, op, sc.Alive(), sc.Current())
		}
	}
}
