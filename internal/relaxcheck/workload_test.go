package relaxcheck

import (
	"reflect"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/sim"
)

func TestWorkloadPlanDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		w := Workload{Kind: kind, Clients: 10, Ops: 200, Sites: 5}
		p1 := w.Plan(sim.NewRNG(99))
		p2 := w.Plan(sim.NewRNG(99))
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: same seed, different plans", kind)
		}
		p3 := w.Plan(sim.NewRNG(100))
		if reflect.DeepEqual(p1, p3) {
			t.Fatalf("%s: different seeds, identical plans", kind)
		}
	}
}

func TestWorkloadPlanShape(t *testing.T) {
	for _, kind := range Kinds() {
		w := Workload{Kind: kind, Clients: 7, Ops: 150, Sites: 4}
		p := w.Plan(sim.NewRNG(5))
		if len(p.Arrivals) != w.Ops {
			t.Fatalf("%s: %d arrivals, want %d", kind, len(p.Arrivals), w.Ops)
		}
		for i, a := range p.Arrivals {
			if i > 0 && a.At < p.Arrivals[i-1].At {
				t.Fatalf("%s: arrivals out of order at %d", kind, i)
			}
			if a.Client < 0 || a.Client >= w.Clients {
				t.Fatalf("%s: client %d out of range", kind, a.Client)
			}
			switch a.Inv.Name {
			case history.NameEnq:
				if len(a.Inv.Args) != 1 || a.Inv.Args[0] < 1 {
					t.Fatalf("%s: bad enqueue %v", kind, a.Inv)
				}
			case history.NameDeq:
			default:
				t.Fatalf("%s: unexpected invocation %v", kind, a.Inv)
			}
		}
		if kind == FaultCorrelated {
			if len(p.Faults) == 0 {
				t.Fatal("fault-correlated plan has no faults")
			}
			for _, f := range p.Faults {
				switch f.Kind {
				case "crash", "restore":
					if f.Site < 0 || f.Site >= w.Sites {
						t.Fatalf("fault site %d out of range", f.Site)
					}
				case "partition":
					if len(f.Groups) != 2 {
						t.Fatalf("partition groups = %v", f.Groups)
					}
				case "heal":
				default:
					t.Fatalf("unknown fault kind %q", f.Kind)
				}
			}
		} else if len(p.Faults) != 0 {
			t.Fatalf("%s: unexpected fault events %v", kind, p.Faults)
		}
	}
}

func TestWorkloadSkewPhases(t *testing.T) {
	w := Workload{Kind: Skewed, Clients: 5, Ops: 400}
	p := w.Plan(sim.NewRNG(11))
	// The fill half must be enqueue-heavy and the drain half
	// dequeue-heavy (55/90 splits leave wide margins at 400 ops).
	half := len(p.Arrivals) / 2
	deqs := func(arr []Arrival) int {
		n := 0
		for _, a := range arr {
			if a.Inv.Name == history.NameDeq {
				n++
			}
		}
		return n
	}
	front, back := deqs(p.Arrivals[:half]), deqs(p.Arrivals[half:])
	if front >= half/2 {
		t.Fatalf("fill phase has %d/%d dequeues", front, half)
	}
	if back <= (len(p.Arrivals)-half)/2 {
		t.Fatalf("drain phase has only %d/%d dequeues", back, len(p.Arrivals)-half)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		got, err := ParseKind(kind.String())
		if err != nil || got != kind {
			t.Fatalf("round trip %v: got %v, err %v", kind, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind parsed")
	}
}

func TestWorkloadPlanPanicsWithoutClientsOrOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workload did not panic")
		}
	}()
	Workload{}.Plan(sim.NewRNG(1))
}
