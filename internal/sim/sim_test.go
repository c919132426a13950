package sim

import (
	"math"
	"strings"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	if NewRNG(1).Intn(10) != NewRNG(1).Intn(10) {
		t.Errorf("Intn not deterministic")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	s1 := g.Split()
	s2 := g.Split()
	// The two splits must themselves be deterministic given the parent
	// seed, and distinct from one another.
	same := true
	for i := 0; i < 20; i++ {
		if s1.Float64() != s2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Errorf("splits produced identical streams")
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(3)
	if !g.Bool(1.0) {
		t.Errorf("Bool(1) must be true")
	}
	n := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if g.Bool(0.25) {
			n++
		}
	}
	if f := float64(n) / trials; math.Abs(f-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v", f)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(5)
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += g.Exp(4.0)
	}
	if mean := sum / trials; math.Abs(mean-4.0) > 0.2 {
		t.Errorf("Exp mean = %v, want ≈4", mean)
	}
}

func TestEngineOrdersEvents(t *testing.T) {
	var e Engine
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	n := e.Run(10)
	if n != 3 {
		t.Fatalf("executed %d", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, got := range order {
		if got != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestEngineHorizonAndCascade(t *testing.T) {
	var e Engine
	fired := 0
	// Events schedule follow-ups; only those within the horizon run.
	var tick func()
	tick = func() {
		fired++
		e.After(1, tick)
	}
	e.After(0, tick)
	e.Run(5)
	if fired != 6 { // t=0..5
		t.Errorf("fired = %d", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	// Past-time scheduling clamps to now.
	ran := false
	e.At(0, func() { ran = true })
	e.Run(5)
	if !ran {
		t.Errorf("past event never ran")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Errorf("empty ratio = %v", r.Value())
	}
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	if r.Value() != 2.0/3.0 {
		t.Errorf("ratio = %v", r.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "p", "count")
	tb.AddRow("alpha", 0.25, 10)
	tb.AddRow("b", 0.5, 2)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "count") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "0.25") {
		t.Errorf("row = %q", lines[2])
	}
	// Floats render without trailing zeros.
	if strings.Contains(s, "0.250000") {
		t.Errorf("unclean float: %q", s)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
