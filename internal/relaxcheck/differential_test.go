package relaxcheck

import (
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/sim"
)

// maxDiffLen bounds prefix lengths in the differential battery —
// matching the offline experiments' MaxLen scale, where full
// WeakestAccepting replays stay cheap.
const maxDiffLen = 8

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

// assertOnlineMatchesOffline feeds h through a fresh checker and
// asserts, after every single operation, that the online verdict and
// level equal the offline WeakestAccepting of that prefix.
func assertOnlineMatchesOffline(t *testing.T, lat *lattice.Relaxation, h history.History) {
	t.Helper()
	c := New(lat, Options{})
	for i, op := range h {
		c.ObserveOp(op)
		prefix := h[:i+1]
		want, ok := lat.WeakestAccepting(prefix)
		if got := c.Current(); !sameSets(got, want) {
			t.Fatalf("%s prefix %v: online %v, offline %v", lat.Name, prefix, got, want)
		}
		if gotDead := c.Violation() != nil && c.Violation().Kind == KindExhausted; gotDead == ok {
			t.Fatalf("%s prefix %v: online exhausted=%v, offline ok=%v", lat.Name, prefix, gotDead, ok)
		}
		if !ok {
			return // both agree the lattice is exhausted; it stays so
		}
	}
}

// lattices under differential test: the taxi lattice (bag-valued
// states, 2 constraints) and both spooler lattices (sequence-valued
// states, 3 constraints).
func diffLattices() []*lattice.Relaxation {
	return []*lattice.Relaxation{
		core.TaxiSimpleLattice(),
		core.SemiqueueLattice(3),
		core.StutteringLattice(3),
	}
}

func TestDifferentialTable(t *testing.T) {
	table := []history.History{
		{},
		{history.Enq(1)},
		{history.Enq(1), history.DeqOk(1)},
		{history.Enq(3), history.Enq(1), history.DeqOk(1), history.DeqOk(3)},
		{history.Enq(2), history.DeqOk(2), history.DeqOk(2)},
		{history.DeqOk(5)},
		{history.Enq(1), history.Enq(2), history.Enq(3), history.DeqOk(3), history.DeqOk(2), history.DeqOk(1)},
		{history.Enq(1), history.Enq(1), history.DeqOk(1), history.DeqOk(1)},
	}
	for _, h := range table {
		for _, lat := range diffLattices() {
			assertOnlineMatchesOffline(t, lat, h)
		}
	}
}

// TestDifferentialSeededWorkloads replays the soak generators' own
// arrival streams (every kind, bounded length) through the online and
// offline checkers — the workloads the harness certifies are exactly
// the ones the differential battery covers.
func TestDifferentialSeededWorkloads(t *testing.T) {
	for _, kind := range Kinds() {
		for seed := int64(1); seed <= 8; seed++ {
			w := Workload{Kind: kind, Clients: 4, Ops: maxDiffLen, Sites: 3}
			plan := w.Plan(sim.NewRNG(seed))
			h := make(history.History, 0, len(plan.Arrivals))
			for _, a := range plan.Arrivals {
				// Complete each invocation the simplest legal-looking way;
				// the differential property must hold on *any* history,
				// legal or not.
				if a.Inv.Name == history.NameDeq {
					h = append(h, history.DeqOk(1+int(seed)%3))
				} else {
					h = append(h, history.Enq(a.Inv.Args[0]))
				}
			}
			for _, lat := range diffLattices() {
				assertOnlineMatchesOffline(t, lat, h)
			}
		}
	}
}

// TestDifferentialRandomHistories is the pure property-based sweep:
// uniformly random (not necessarily legal) queue histories.
func TestDifferentialRandomHistories(t *testing.T) {
	rng := sim.NewRNG(7)
	alphabet := history.QueueAlphabet(3)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(maxDiffLen)
		h := make(history.History, 0, n)
		for i := 0; i < n; i++ {
			h = append(h, alphabet[rng.Intn(len(alphabet))])
		}
		for _, lat := range diffLattices() {
			assertOnlineMatchesOffline(t, lat, h)
		}
	}
}
